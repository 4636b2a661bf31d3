"""Driver contract for the Ray-Data-native console-transcript engine.

``entry()`` runs the flagship parse on sf0.001.  ``queries()`` exposes
one callable per implemented operator (SURVEY.md section 2 plus the
training-data-pipeline extensions); ``oracle_sql()`` gives DuckDB
equivalents for the SQL-expressible ones.

Transcript queries run over a deterministic synthetic transcripts table
(seed 42) cached under /tmp/clpr_transcripts/<sf>/ -- the driver's
DuckDB reads the same parquet files via read_parquet(), and the
generator's ground-truth columns (computed independently of the engine,
validated against the in-process reference oracle in tests/) serve as
the SQL side.

Ray is initialised by the driver before import; nothing here calls
ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)

from console_log_parser_ray.sources import cache as _cache  # noqa: E402

# The driver's correctness gate runs at sf0.01; oracle SQL reads the
# same cached parquet the Ray queries parse.
_SF001_GLOB = os.path.join(_cache.CACHE_ROOT, "sf0.01", "*.parquet")

_TOOL_SINK_CASE = """
    CASE expected_tool
      WHEN '' THEN 'none'
      WHEN 'git' THEN 'vcs'
      WHEN 'make' THEN 'build'
      WHEN 'python' THEN 'lang'
      WHEN 'vim' THEN 'editor'
      WHEN 'grep' THEN 'shell'
      ELSE 'shell'
    END
"""


_TURN_COLUMNS = ["conv_id", "turn_idx", "text", "ts"]


def _transcripts_ds(sf_dir: str):
    import ray.data

    path = _cache.ensure_transcripts(sf_dir)
    return ray.data.read_parquet(path, columns=_TURN_COLUMNS)


def _parsed(sf_dir: str):
    """Live session scan: one task per conversation-complete transcript
    file runs ``scan_bucket_table`` in-task, with no exchange."""
    from console_log_parser_ray.stages.scan import scan_bucket_table

    return _cache.map_conv_files(
        _cache.ensure_transcripts(sf_dir), scan_bucket_table, _TURN_COLUMNS
    )


def _enriched(sf_dir: str, cfg=None):
    """Live parse + enrich (the flagship kernel's scan -> enrich, per
    transcript file); ``cfg`` is an optional ``EnrichConfig``."""
    from console_log_parser_ray.stages.enrich import EnrichTurns
    from console_log_parser_ray.stages.scan import scan_bucket_table

    enrich = EnrichTurns(cfg)
    return _cache.map_conv_files(
        _cache.ensure_transcripts(sf_dir),
        lambda t: enrich(scan_bucket_table(t)),
        _TURN_COLUMNS,
    )


def _enriched_cached(sf_dir: str, columns):
    """Column-pruned read of the once-materialized enriched parse
    output (``sources/cache.ensure_enriched``).

    Used by the transcript-ANALYTICS family, which treats the enriched
    table as input data rather than exercising the parser: the session
    scan runs once per scale factor and every analytics query reads
    only the columns it needs from the cached parquet.  The engine-
    correctness queries (parse_clean_text, conv_text, ...) intentionally
    keep running the live parse.
    """
    import ray.data

    # an explicit column list also keeps the sink's shard=<s>
    # directories from surfacing as a partition column
    return ray.data.read_parquet(_cache.ensure_enriched(sf_dir), columns=columns)


def _enriched_conv_partials(sf_dir: str, columns, per_group):
    """Per-conversation partials over the enriched cache WITHOUT a
    shuffle: its files are conversation-complete, so one task per file
    applies ``per_group`` (a conv-complete pyarrow.Table ->
    partial-histogram pyarrow.Table) to a column-pruned in-task read.
    """
    return _cache.map_conv_files(
        _cache.ensure_enriched(sf_dir), per_group, columns
    )


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001 (smoke check)."""
    return _enriched("/root/testdata/sf0.001")


# ---------------------------------------------------------------------------
# transcript queries
# ---------------------------------------------------------------------------


def _q_parse_clean_text(sf_dir: str):
    return _parsed(sf_dir).select_columns(["conv_id", "turn_idx", "clean_text"])


def _q_parse_structure(sf_dir: str):
    return _parsed(sf_dir).select_columns(
        ["conv_id", "turn_idx", "role", "cmd_count", "in_vim", "command"]
    )


def _q_role_counts(sf_dir: str):
    return (
        _parsed(sf_dir)
        .groupby("role")
        .count()
        .rename_columns({"count()": "n"})
    )


def _q_tool_sink_counts(sf_dir: str):
    return (
        _enriched(sf_dir)
        .groupby("sink")
        .count()
        .rename_columns({"count()": "n"})
    )


def _q_commands(sf_dir: str):
    from console_log_parser_ray.stages.dedup import distinct_rows

    ds = (
        _enriched(sf_dir)
        .filter(expr="cmd_count > 0")
        .select_columns(["conv_id", "cmd_count", "command", "tool"])
    )
    # rows within one (conv, cmd) block are identical, so a bucketed
    # any-wins distinct is exact and avoids per-key group dispatch
    return distinct_rows(ds, ["conv_id", "cmd_count"])


def _q_conv_rollup(sf_dir: str):
    from console_log_parser_ray.pipelines.run import conv_rollup_table
    from console_log_parser_ray.stages.scan import scan_bucket_table

    return _cache.map_conv_files(
        _cache.ensure_transcripts(sf_dir),
        lambda t: conv_rollup_table(scan_bucket_table(t)),
        _TURN_COLUMNS,
    )


def _q_turn_events(sf_dir: str):
    """Per-turn dispatched-event rows (the structured twin of the
    reference's handler hooks -- SURVEY §2.8's extension surface)."""
    from console_log_parser_ray.stages.stats import extract_events

    return extract_events(_cache.ensure_transcripts(sf_dir))


def _q_conv_fingerprint(sf_dir: str):
    """Conversation-level content fingerprints over the full transcript
    table (the conversation-dedup key at scale; shuffle-free on the
    conv-partitioned cache)."""
    from console_log_parser_ray.stages.dedup import conversation_fingerprints

    return conversation_fingerprints(_cache.ensure_transcripts(sf_dir))


def _q_seq_histogram(sf_dir: str):
    from console_log_parser_ray.pipelines import flagship

    return flagship.sequence_histogram(_cache.ensure_transcripts(sf_dir))


# ---------------------------------------------------------------------------
# document / embedding / event queries over the driver's testdata
# ---------------------------------------------------------------------------


def _docs(sf_dir: str, columns=None):
    """documents reader; pass ``columns=`` when the consumer maps
    before selecting (Ray only pushes projections down into the read
    for map-free selects), so unused columns -- above all ``text`` --
    never leave storage."""
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=columns
    )


def _q_dedup_exact(sf_dir: str):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.dedup import exact_dedup

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])

    def shift(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.set_column(
            b.schema.get_field_index("doc_id"),
            "doc_id",
            pc.add(b.column("doc_id"), 1_000_000),
        )

    doubled = docs.union(docs.map_batches(shift, batch_format="pyarrow"))
    return exact_dedup(doubled).select_columns(["doc_id"])


def _minhash_aug(sf_dir: str):
    """The planted near-dup corpus: documents plus DETERMINISTICALLY
    perturbed copies (doc_id + 1e6; the middle token is dropped when a
    document has >= 60 tokens, else the copy is exact), so every
    planted pair has shingle-Jaccard >= 0.91 and a 0.9-threshold LSH
    output equals the exact all-pairs >= 0.9 ground truth, which the
    SQL oracles compute directly (shingle sets and Jaccard are list
    arithmetic in DuckDB)."""
    import pyarrow as pa

    from console_log_parser_ray.stages.textan import ascii_tokens

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])

    def perturb(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        texts = b.column("text").to_pylist()
        out_t = []
        for t in texts:
            toks = ascii_tokens(t)
            if len(toks) >= 60:
                p = len(toks) // 2
                toks = toks[:p] + toks[p + 1 :]
            out_t.append(" ".join(toks))
        return pa.table(
            {
                "doc_id": pa.array([i + 1_000_000 for i in ids], pa.int64()),
                "text": pa.array(out_t, pa.string()),
            }
        )

    return docs.union(docs.map_batches(perturb, batch_format="pyarrow"))


def _q_dedup_minhash(sf_dir: str):
    """MinHash+LSH near-dup over the planted corpus (``_minhash_aug``)."""
    from console_log_parser_ray.stages.dedup import minhash_near_dups

    return minhash_near_dups(_minhash_aug(sf_dir), threshold=0.9).select_columns(
        ["doc_a", "doc_b"]
    )


def _q_dup_clusters(sf_dir: str):
    """Near-dup clustering: connected components over the MinHash+LSH
    pair graph of the planted corpus -- every document labeled with its
    duplicate-cluster id (min reachable doc_id) and whether it is the
    canonical representative a curation pipeline would keep.  The SQL
    oracle recomputes the exact pair set all-pairs and folds it with a
    recursive CTE, so the iterative distributed label propagation is
    pinned end-to-end."""
    from console_log_parser_ray.stages.dedup import (
        dup_cluster_labels,
        minhash_near_dups,
    )

    aug = _minhash_aug(sf_dir)
    pairs = minhash_near_dups(aug, threshold=0.9)
    return dup_cluster_labels(pairs, aug.select_columns(["doc_id"]))


def _q_kmeans(sf_dir: str):
    """Distributed Lloyd's k-means over the embeddings table (k=8,
    deterministic smallest-id seeding, two assignment rounds with one
    centroid update between).  The SQL oracle unrolls the identical
    iterations in CTEs -- seed, argmin assign, per-position centroid
    means, re-assign -- so the broadcast/partial-sum implementation is
    pinned by exact cluster assignments, not just row counts."""
    from console_log_parser_ray.stages.similarity import kmeans_clusters

    return kmeans_clusters(
        _embeddings(sf_dir).select_columns(["vec_id", "embedding"]),
        k=8,
        n_assign=2,
    )


def _q_sample_stratified(sf_dir: str):
    """Balanced per-source document sample: the 20 rows per source
    whose multiplicative doc_id hash sorts lowest -- block-local top-k
    partials, one bounded shuffle."""
    from console_log_parser_ray.stages.events import sample_per_group

    return sample_per_group(
        _docs(sf_dir).select_columns(["doc_id", "source"]),
        group_col="source",
        k=20,
        id_col="doc_id",
    )


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: the 5%-hash-sampled documents stand
    in for an eval set; every document is flagged with its count of
    distinct 5-token-gram collisions against that set (broadcast
    membership, no shuffle)."""
    from console_log_parser_ray.stages.events import deterministic_sample
    from console_log_parser_ray.stages.textan import decontaminate

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    bench = deterministic_sample(docs, rate_pct=5)
    return decontaminate(docs, bench, n=5)


def _q_token_jaccard(sf_dir: str):
    from console_log_parser_ray.stages.dedup import token_jaccard_adjacent

    return token_jaccard_adjacent(_docs(sf_dir, ["doc_id", "text"]))


def _q_embedding_near_dups(sf_dir: str):
    """Embedding-cosine near-dup over the embeddings table augmented
    with planted noisy copies (vec_id + 1e6, ~0.999 cosine to their
    source; the table's natural pairs top out near 0.51, so the 0.9
    threshold classifies deterministically and the expected pair set is
    exactly the planted one)."""
    import numpy as np
    import pyarrow as pa

    from console_log_parser_ray.stages.dedup import embedding_near_dups

    base = _embeddings(sf_dir).select_columns(["vec_id", "embedding"])

    def perturb(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id").to_pylist()
        mat = np.array(b.column("embedding").to_pylist(), dtype=np.float64)
        out = []
        for i, v in zip(ids, mat):
            rng = np.random.default_rng(i)
            noise = rng.normal(size=v.shape)
            noise /= np.linalg.norm(noise) or 1.0
            w = v + 0.03 * np.linalg.norm(v) * noise
            out.append([float(x) for x in w])
        return pa.table(
            {
                "vec_id": pa.array([i + 1_000_000 for i in ids], pa.int64()),
                "embedding": pa.array(out),
            }
        )

    aug = base.union(base.map_batches(perturb, batch_format="pyarrow"))
    return embedding_near_dups(aug, threshold=0.9).select_columns(
        ["doc_a", "doc_b"]
    )


def _q_simhash(sf_dir: str):
    from console_log_parser_ray.stages.dedup import simhash

    return simhash(_docs(sf_dir, ["doc_id", "text"]))


def _q_token_stats(sf_dir: str):
    from console_log_parser_ray.stages.textan import token_stats

    return token_stats(_docs(sf_dir, ["doc_id", "text"]))


def _q_simhash_dups(sf_dir: str):
    """SimHash near-dup pairs (hamming <= 3) via exact pigeonhole
    banding -- full recall, so the all-pairs SQL self-join is an exact
    oracle, not just a recall bound."""
    from console_log_parser_ray.stages.dedup import simhash_near_dups

    return simhash_near_dups(
        _docs(sf_dir).select_columns(["doc_id", "text"]), max_hamming=3
    )


def _q_event_quantiles(sf_dir: str):
    """Exact per-event-type value quantiles (percentile_disc
    semantics, so the engine and SQL pick the same actual element --
    bit-identical doubles, no interpolation)."""
    from console_log_parser_ray.stages.events import group_quantiles

    return group_quantiles(
        _events(sf_dir).select_columns(["event_type", "value"]),
        "event_type",
        "value",
        qs=(0.5, 0.95),
    )


def _q_winsorize(sf_dir: str):
    """Per-group winsorization at the hash-sampled p95
    (stages/events.winsorize_per_group): bounded threshold pass +
    stateless clip; deterministic sample makes the SQL mirror's
    LEAST() bit-identical to np.minimum."""
    from console_log_parser_ray.stages.events import winsorize_per_group

    return winsorize_per_group(
        _events(sf_dir).select_columns(
            ["event_id", "event_type", "value"]
        ),
        "event_type",
        "value",
        id_col="event_id",
        q=0.95,
        sample_mod=4,
    )


def _q_epoch_upsample(sf_dir: str):
    """Fractional-epoch domain resampling
    (stages/export.epoch_upsample): srcN gets 0.25*(1 + N%10) epochs,
    so the corpus spans true downsampling (0.25x) through 2.5x
    replication; the fractional remainder resolves per row on the
    fmix32 id hash, bit-exactly mirrored by the SQL CROSS JOIN
    range."""
    from console_log_parser_ray.stages.export import epoch_upsample

    return epoch_upsample(
        _docs(sf_dir).select_columns(["doc_id", "source"]),
        lambda g: 250 * (1 + int(g[3:]) % 10),
        group_col="source",
        id_col="doc_id",
    )


def _q_zscore(sf_dir: str):
    """Per-group z-score normalization (stages/events.zscore_per_group):
    integer-exact moments (cent sums in unbounded ints / HUGEINT) +
    a fixed IEEE-deterministic float epilogue, so both engines emit
    identical doubles (operands stay under 2^53 at oracle scale)."""
    from console_log_parser_ray.stages.events import zscore_per_group

    return zscore_per_group(
        _events(sf_dir).select_columns(
            ["event_id", "event_type", "value"]
        ),
        "event_type",
        "value",
        id_col="event_id",
    )


def _q_cms_counts(sf_dir: str):
    """Count-min sketch point-frequency estimates
    (stages/sketch.count_min_counts) for 32 probe user ids: 4 x 1024
    integer counters, per-block bincount partials, zero shuffle,
    driver state bounded at d*w counters at any key cardinality.
    The fmix32 hash chain is DuckDB-expressible, so the estimates --
    overcounts included -- match the SQL mirror exactly."""
    from console_log_parser_ray.stages.sketch import count_min_counts

    import numpy as np

    return count_min_counts(
        _events(sf_dir).select_columns(["user_id"]),
        "user_id",
        probes=np.arange(1, 33),
        d=4,
        w=1024,
    )


def _q_sampled_quantiles(sf_dir: str):
    """Hash-sampled per-group quantiles
    (stages/events.sampled_group_quantiles): the scale path for
    CONTINUOUS value columns where the exact quantile family's
    distinct-value state equals the row count.  The fmix32 id-hash
    sample is deterministic, so the SQL mirror running the same hash
    chain sees the identical sample and percentile_disc matches
    bit-for-bit."""
    from console_log_parser_ray.stages.events import (
        sampled_group_quantiles,
    )

    return sampled_group_quantiles(
        _events(sf_dir).select_columns(
            ["event_id", "event_type", "value"]
        ),
        "event_type",
        "value",
        id_col="event_id",
        qs=(0.5, 0.95),
        sample_mod=4,
    )


def _q_heavy_hitters(sf_dir: str):
    """Exact heavy hitters over events.user_id via two-pass
    Misra-Gries (sketch -> merged candidates -> broadcast exact
    verify): every user with frequency strictly above N/2000, exact
    counts, zero shuffle.  The SQL HAVING mirror uses the same
    integer n*k > N comparison.  (k chosen so the result is non-empty
    at every test sf: an empty Ray Dataset drops its schema through
    to_pandas, which the driver would read as a schema mismatch.)"""
    from console_log_parser_ray.stages.sketch import heavy_hitters

    return heavy_hitters(
        _events(sf_dir).select_columns(["user_id"]), "user_id", k=2000
    )


def _q_simhash_clusters(sf_dir: str):
    """Duplicate clusters over the simhash hamming<=3 pair graph:
    because the banding has full recall, the edge set is exact and the
    recursive-CTE oracle pins the distributed union-find/label-prop
    end-to-end on the REAL documents table (dup_clusters does the same
    over the planted minhash corpus)."""
    from console_log_parser_ray.stages.dedup import (
        dup_cluster_labels,
        simhash_near_dups,
    )

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    pairs = simhash_near_dups(docs, max_hamming=3)
    return dup_cluster_labels(pairs, docs.select_columns(["doc_id"]))


def _q_shard_assign(sf_dir: str):
    """Deterministic hash-shard placement for training-data export
    (16 shards): the rule `stages/export.export_shards` writes with,
    pinned as a pure projection so the SQL oracle states it verbatim."""
    from console_log_parser_ray.stages.export import shard_assignments

    return shard_assignments(
        _docs(sf_dir).select_columns(["doc_id"]), n_shards=16
    )


def _q_pack_sequences(sf_dir: str):
    """Sequence packing: deterministic contiguous token-tape packing
    into 512-token packs within 16 hash shards.  The text column is
    projected away before the one int-only shuffle; each shard group
    is a vectorized sort+cumsum.  The SQL oracle states the identical
    rule as a windowed running sum."""
    from console_log_parser_ray.stages.export import pack_sequences

    return pack_sequences(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        budget=512,
        n_shards=16,
    )


def _q_mix_domains(sf_dir: str):
    """Domain-mixture resampling: per-source keep-rates that bring the
    corpus to target proportions (weight of ``src<i>`` = i%4+1),
    realised as integer hash thresholds -- count pass + stateless
    broadcast filter, bit-exact vs the SQL mirror."""
    from console_log_parser_ray.stages.export import mix_domains

    return mix_domains(
        _docs(sf_dir).select_columns(["doc_id", "source"]),
        weight_fn=lambda s: int(s[3:]) % 4 + 1,
    )


def _q_event_gaps(sf_dir: str):
    """Per-user inter-event gap (LAG delta, null for the user's first
    event): users coarsened into 64 hash buckets before the one
    groupby, vectorized lexsort+diff inside each bucket."""
    from console_log_parser_ray.stages.events import event_gaps

    return event_gaps(
        _events(sf_dir).select_columns(["event_id", "user_id", "ts"])
    )


def _q_user_history(sf_dir: str):
    """Per-user ordered first-3 event-type history (collect_list
    LIMIT k) plus total counts: bounded user-hash buckets, one
    lexsort + ordinal mask per bucket."""
    from console_log_parser_ray.stages.events import user_history

    return user_history(
        _events(sf_dir).select_columns(
            ["event_id", "user_id", "ts", "event_type"]
        ),
        k=3,
    )


def _q_props_extract(sf_dir: str):
    """Schema-on-read: integer field out of the JSON props column via
    one vectorized RE2 kernel; stateless, fuses into the read."""
    from console_log_parser_ray.stages.events import extract_json_int

    return extract_json_int(
        _events(sf_dir).select_columns(["event_id", "props"]),
        col="props",
        key="k",
    )


def _q_conv_text(sf_dir: str):
    """Per-conversation document reassembly (ordered newline join of
    turn texts): shuffle-free over the conv-partitioned transcripts
    cache (one task per file), one output row per conversation -- the
    export twin of conv_fingerprint."""
    from console_log_parser_ray.stages.dedup import conversation_texts

    return conversation_texts(_cache.ensure_transcripts(sf_dir))


def _q_mad_outliers(sf_dir: str):
    """Robust MAD outlier flags on document length: two exact
    percentile_disc medians from the compressed value histogram, one
    stateless flag pass over the corpus."""
    from console_log_parser_ray.stages.events import mad_outlier_flags

    return mad_outlier_flags(
        _docs(sf_dir).select_columns(["doc_id", "n_chars"]),
        value_col="n_chars",
        id_col="doc_id",
        k=3,
    )


def _q_doc_decile(sf_dir: str):
    """Equi-depth decile binning (ntile(10) over length): the exact
    global rank converts to its tile in place -- same two bounded
    passes as doc_rank, no global sort barrier."""
    from console_log_parser_ray.stages.relational import global_row_number

    return global_row_number(
        _docs(sf_dir).select_columns(["doc_id", "n_chars"]),
        value_col="n_chars",
        id_col="doc_id",
        descending=False,
        out_col="tile",
        ntile=10,
    )


def _q_audience_overlap(sf_dir: str):
    """Pairwise distinct-user overlap between event types via
    per-bucket category-bitmask histograms -- at most 2^|types| rows
    ever leave a bucket.  Categories passed sorted so list order ==
    lexicographic pair order."""
    from console_log_parser_ray.stages.events import audience_overlap

    return audience_overlap(
        _events(sf_dir).select_columns(["event_type", "user_id"]),
        categories=("click", "error", "purchase", "signup", "view"),
    )


def _q_idle_customers(sf_dir: str):
    """Anti-join: customers with NO order in 1999 (the novelty /
    exclusion filter shape) via the co-partitioned hash_join's
    left-anti mode -- neither side broadcasts."""
    import datetime

    import ray.data

    from console_log_parser_ray.stages.relational import hash_join

    lo = datetime.datetime(1999, 1, 1)
    hi = datetime.datetime(2000, 1, 1)

    def in_window(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        keep = pc.and_(
            pc.greater_equal(b.column("o_orderdate"), pa.scalar(lo)),
            pc.less(b.column("o_orderdate"), pa.scalar(hi)),
        )
        return b.filter(keep).select(["o_custkey"])

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderdate"],
    ).map_batches(in_window, batch_format="pyarrow")
    return hash_join(
        cust, orders, on="c_custkey", right_on="o_custkey", how="anti"
    )


def _q_user_rolling(sf_dir: str):
    """Per-user moving-frame sum (ROWS 2 PRECEDING .. CURRENT ROW) of
    integer cents: bounded user-hash buckets, one lexsort + prefix-sum
    difference per bucket."""
    from console_log_parser_ray.stages.events import rolling_user_sum

    return rolling_user_sum(
        _events(sf_dir).select_columns(
            ["event_id", "user_id", "ts", "value"]
        ),
        window=3,
    )


def _q_role_transitions(sf_dir: str):
    """Global role-transition (Markov) counts over parsed
    conversations: conv-hash bucket groups form every adjacent turn
    pair vectorized; the final transition groupby sees only tiny
    per-bucket partials."""
    from console_log_parser_ray.stages.events import transition_counts

    return transition_counts(
        _parsed(sf_dir).select_columns(["conv_id", "turn_idx", "role"]),
        key_col="conv_id",
        order_col="turn_idx",
        state_col="role",
    )


def _q_doc_rank(sf_dir: str):
    """Exact global ROW_NUMBER over (n_chars DESC, doc_id) without a
    global sort barrier: value-histogram offsets broadcast + per-value
    ordinals inside value-hash bucket groups."""
    from console_log_parser_ray.stages.relational import global_row_number

    return global_row_number(
        _docs(sf_dir).select_columns(["doc_id", "n_chars"]),
        value_col="n_chars",
        id_col="doc_id",
    )


def _q_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event type: block-local pair
    dedup before the one val-hash bucket shuffle, per-bucket exact
    dedup + partial counts, tiny final key groupby."""
    from console_log_parser_ray.stages.events import (
        distinct_count_per_group,
    )

    return distinct_count_per_group(
        _events(sf_dir).select_columns(["event_type", "user_id"])
    )


def _q_approx_distinct_users(sf_dir: str):
    """HyperLogLog-style approximate COUNT(DISTINCT user_id) per event
    type (m=64 registers, murmur fmix32 value hash): the bounded-state
    scale path beside the exact ``distinct_users`` -- 64 integers per
    key leave each block regardless of value cardinality.  Every step
    is integer-exact, so the DuckDB mirror agrees bit-for-bit
    (including the single float division in ``est``)."""
    from console_log_parser_ray.stages.events import (
        approx_distinct_per_group,
    )

    return approx_distinct_per_group(
        _events(sf_dir).select_columns(["event_type", "user_id"])
    )


def _q_user_running(sf_dir: str):
    """Per-user running aggregates (ROW_NUMBER + cumulative integer
    cents): users coarsened into 64 hash buckets before the one
    groupby, lexsort + cumsum-with-group-reset inside each bucket."""
    from console_log_parser_ray.stages.events import running_user_totals

    return running_user_totals(
        _events(sf_dir).select_columns(
            ["event_id", "user_id", "ts", "value"]
        )
    )


def _q_dup_spans(sf_dir: str):
    """Exact duplicated k-token-span counts per document (the
    exact-substring-dedup signal): span-hash bucket groups compute
    cross-document span frequency locally, partial+final doc groupby
    folds the flags back."""
    from console_log_parser_ray.stages.textan import dup_spans

    return dup_spans(
        _docs(sf_dir).select_columns(["doc_id", "text"]), k=8
    )


def _q_chunk_docs(sf_dir: str):
    """Context-window chunking into 32-token windows with 8-token
    overlap (step 24): stateless flat reshape, shared \\S+
    tokenization, so the list-slice SQL mirror is exact."""
    from console_log_parser_ray.stages.textan import chunk_documents

    return chunk_documents(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        size=32,
        overlap=8,
    )


def _q_top_decile_docs(sf_dir: str):
    """Global top-decile length filter: exact percentile_disc
    threshold from per-block (value, count) partials -- only the
    compressed distribution is shuffled."""
    from console_log_parser_ray.stages.events import filter_top_quantile

    return filter_top_quantile(
        _docs(sf_dir).select_columns(["doc_id", "n_chars"]),
        value_col="n_chars",
        q=0.9,
    )


def _q_rep_signals(sf_dir: str):
    """Line-repetition / boilerplate quality signals (Gopher-style
    duplicate-line and top-line fractions) -- stateless map_batches,
    exact-integer counts so the SQL division mirror is bit-for-bit."""
    from console_log_parser_ray.stages.textan import rep_signals

    return rep_signals(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_semdedup(sf_dir: str):
    """SemDeDup semantic deduplication over the embeddings table: the
    deterministic distributed k-means (same recipe the `kmeans` query
    pins) clusters the vectors, then inside each cluster any vector
    with a smaller-id cosine>=0.9 neighbor is marked keep=false.  The
    synthetic embeddings have no natural near-dups (max within-cluster
    cosine ~0.6), so the query plants exact copies (vec_id+100000 for
    every vec_id%5==0), mirrored in the SQL oracle -- planted copies
    sit at cosine ~1.0, a 0.3-wide float-safety gap from tau on both
    sides of the comparison."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.stages.similarity import semdedup

    base = _embeddings(sf_dir).select_columns(["vec_id", "embedding"])

    def copies(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id").cast(pa.int64())
        sel = pc.equal(
            pc.subtract(
                ids, pc.multiply(pc.divide(ids, 5), 5)
            ),
            0,
        )
        kept = b.filter(sel)
        return pa.table(
            {
                "vec_id": pc.add(
                    kept.column("vec_id").cast(pa.int64()), 100000
                ),
                "embedding": kept.column("embedding"),
            }
        )

    planted = base.union(
        base.map_batches(copies, batch_format="pyarrow")
    )
    return semdedup(planted, k=8, n_assign=2, tau=0.9)


def _q_ngram_rep(sf_dir: str):
    """Gopher-style n-gram repetition quality signals (duplicate- and
    top-n-gram fractions for n=2,3,4) -- stateless map_batches over the
    vectorized gram tape; exact-integer counts, one float64 division
    each, so the SQL mirror is bit-for-bit."""
    from console_log_parser_ray.stages.textan import ngram_rep_signals

    return ngram_rep_signals(
        _docs(sf_dir).select_columns(["doc_id", "text"])
    )


def _q_line_dedup(sf_dir: str):
    """Corpus-level duplicate-line removal (C4 / CCNet boilerplate
    strip): any non-empty line appearing in >= 2 distinct documents is
    dropped from every document; documents are re-joined from the kept
    lines in order.  Line document-frequencies are computed locally in
    line-hash buckets (the idf_rarity shape -- no banned-set broadcast,
    no driver collect), reassembly rides the shared vectorized
    sort + binary_join used by conversation_texts.

    The synthetic documents table is single-line, so the query plants
    the boilerplate it must strip (mirrored in the SQL oracle): each
    doc gains a footer line shared by its doc_id%7 group (banned --
    df ~ docs/7) and a trailing empty line (structural, always kept),
    while the original unique body line must survive."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.stages.dedup import line_dedup

    def plant(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").cast(pa.int64())
        footer = pc.binary_join_element_wise(
            "BOILERPLATE-",
            pc.cast(
                pc.subtract(
                    ids, pc.multiply(pc.divide(ids, 7), 7)
                ),
                pa.string(),
            ),
            "",
        )
        text = pc.binary_join_element_wise(
            pc.fill_null(b.column("text"), ""), footer, "", "\n"
        )
        return pa.table({"doc_id": ids, "text": text})

    planted = (
        _docs(sf_dir)
        .select_columns(["doc_id", "text"])
        .map_batches(plant, batch_format="pyarrow")
    )
    return line_dedup(planted)


def _q_quality(sf_dir: str):
    from console_log_parser_ray.stages.textan import quality_scores

    return quality_scores(_docs(sf_dir, ["doc_id", "text"])).select_columns(
        ["doc_id", "mean_token_len", "space_ratio", "distinct_token_ratio"]
    )


def _q_lang_hist(sf_dir: str):
    return (
        _docs(sf_dir, ["lang"])
        .groupby("lang")
        .count()
        .rename_columns({"count()": "n"})
    )


def _q_lang_pred(sf_dir: str):
    from console_log_parser_ray.stages.textan import lang_id

    return lang_id(_docs(sf_dir, ["doc_id", "text"])).select_columns(["doc_id", "lang_pred"])


def _q_fingerprint(sf_dir: str):
    from console_log_parser_ray.stages.textan import fingerprint

    return fingerprint(_docs(sf_dir, ["doc_id", "text"]))


def _embeddings(sf_dir: str, columns=None):
    """embeddings reader; ``columns=`` prunes ``label``/``embedding``
    for consumers that map before selecting."""
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=columns
    )


def _knn_queries(sf_dir: str, n=8):
    import pyarrow.parquet as pq

    tbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    ids = tbl.column("vec_id").to_pylist()[:n]
    mat = tbl.column("embedding").to_pylist()[:n]
    return ids, mat


def _q_knn_bruteforce(sf_dir: str):
    from console_log_parser_ray.stages.similarity import knn_bruteforce

    res = knn_bruteforce(
        _embeddings(sf_dir, ["vec_id", "embedding"]),
        _knn_queries(sf_dir),
        k=5,
    )
    return res.select_columns(["query_id", "vec_id"])


def _q_knn_ivf(sf_dir: str):
    from console_log_parser_ray.stages.similarity import knn_ivf

    res = knn_ivf(
        _embeddings(sf_dir, ["vec_id", "embedding"]), _knn_queries(sf_dir), k=5
    )
    return res.select_columns(["query_id", "vec_id"])


def _q_knn_ivf_indexed(sf_dir: str):
    """Scan-pruned ANN: a bucket-partitioned IVF index is built once
    (cached under /tmp) and queries read only their probed buckets'
    parquet partitions from storage."""
    from console_log_parser_ray.sources.cache import sf_name
    from console_log_parser_ray.stages.similarity import (
        ivf_build_index,
        knn_ivf_indexed,
    )

    idx = os.path.join("/tmp/clpr_ivf_index", sf_name(sf_dir))
    marker = os.path.join(idx, "_centroids.parquet")
    if not os.path.exists(marker):
        ivf_build_index(_embeddings(sf_dir, ["vec_id", "embedding"]), idx)
    res = knn_ivf_indexed(idx, _knn_queries(sf_dir), k=5)
    return res.select_columns(["query_id", "vec_id"])


def _events(sf_dir: str, columns=None):
    """events reader; ``columns=`` prunes ``props`` (the widest
    column) for consumers that map before selecting."""
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=columns
    )


def _q_events_windowed(sf_dir: str):
    from console_log_parser_ray.stages.events import tumbling_window_agg

    return tumbling_window_agg(_events(sf_dir, ["event_type", "ts", "value"]))


def _q_events_hopping(sf_dir: str):
    """Hopping (overlapping) window aggregate: 1h windows every 15min,
    each event exploded into its 4 covering windows
    (stages/events.hopping_window_agg)."""
    from console_log_parser_ray.stages.events import hopping_window_agg

    return hopping_window_agg(
        _events(sf_dir).select_columns(["event_type", "ts", "value"])
    )


def _q_sample_docs(sf_dir: str):
    from console_log_parser_ray.stages.events import deterministic_sample

    return deterministic_sample(_docs(sf_dir), rate_pct=10).select_columns(
        ["doc_id"]
    )


def _q_hopto_renumber(sf_dir: str):
    """Hop display-number renumbering through a suppress list
    (reference terminal2html.py:32-38 ``HopTarget.get_target_cmd``;
    engine ``state/config.py`` ``hop_target_cmd``).

    The suppress list is the SMALL side: collected once, broadcast via
    ``ray.put``, and each batch renumbers its hop anchors with one
    vectorized searchsorted -- the closed form of the reference's
    per-hop walk (display = hop - #{suppressed <= hop}), pinned
    equal to ``hop_target_cmd`` by ``tests/test_enrich_config.py``.
    Hops are drawn from the events table; the suppress list is derived
    deterministically from the documents table (doc_id * 11)."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    sup_ids = np.sort(
        np.unique(
            np.asarray(
                _docs(sf_dir)
                .select_columns(["doc_id"])
                .to_pandas()["doc_id"],
                dtype=np.int64,
            )
            * 11
        )
    )
    sup_ref = ray.put(sup_ids)

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id"]
    )

    def renumber(b: pa.Table) -> pa.Table:
        sup = ray.get(sup_ref)
        hops = b.column("event_id").to_numpy(zero_copy_only=False)
        disp = hops - np.searchsorted(sup, hops, side="right")
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "display_cmd": pa.array(disp, pa.int64()),
            }
        )

    return ev.map_batches(renumber, batch_format="pyarrow")


def _q_quantize_ts(sf_dir: str):
    """Frame-gap quantization (reference asciinema2html.py:226-243;
    engine ``sources/asciinema.py`` ``quantize_gaps``) applied to
    per-user event gaps: one user-keyed shuffle, then a vectorized
    diff + searchsorted quantization inside each group."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from console_log_parser_ray.sources.asciinema import quantize_gaps

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )

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

    return ev.groupby("user_id").map_groups(per_user, batch_format="pyarrow")


def _q_sessionize(sf_dir: str):
    from console_log_parser_ray.stages.events import sessionize

    return sessionize(_events(sf_dir, ["user_id", "ts", "event_id"]))


def _q_events_agg(sf_dir: str):
    import ray.data
    from ray.data.aggregate import Count, Max, Min

    return (
        _events(sf_dir, ["event_type", "value"])
        .groupby("event_type")
        .aggregate(Count(), Min("value"), Max("value"))
        .rename_columns(
            {"count()": "n", "min(value)": "vmin", "max(value)": "vmax"}
        )
    )


def _q_top_users(sf_dir: str):
    ds = (
        _events(sf_dir, ["user_id"])
        .groupby("user_id")
        .count()
        .rename_columns({"count()": "n"})
    )
    return ds.sort(["n", "user_id"], descending=[True, False]).limit(10)


def _q_orders_enrich(sf_dir: str):
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray
    import ray.data

    import pyarrow.compute as pc

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_nationkey"],
    )
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    # pre-resolve nation names onto the customer table once (small x
    # small), so the per-batch work is two Arrow index_in/take kernels
    nk_idx = pc.index_in(
        cust.column("c_nationkey"), value_set=nation.column("n_nationkey")
    )
    cust_n_name = pc.take(nation.column("n_name").combine_chunks(), nk_idx)
    maps_ref = ray.put(
        (
            cust.column("c_custkey").combine_chunks(),
            cust.column("c_name").combine_chunks(),
            cust_n_name.combine_chunks()
            if isinstance(cust_n_name, pa.ChunkedArray)
            else cust_n_name,
        )
    )

    def join(b: pa.Table) -> pa.Table:
        """Broadcast hash-join, fully vectorized: the lookup arrays ship
        to the object store once; each batch is one fetch of them, one
        index_in and two takes (no per-row Python)."""
        keys, c_name, n_name = ray.get(maps_ref)
        idx = pc.index_in(b.column("o_custkey"), value_set=keys)
        return pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "c_name": pc.take(c_name, idx),
                "n_name": pc.take(n_name, idx),
            }
        )

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    )
    return orders.map_batches(join, batch_format="pyarrow")


def _q_asof_last_order(sf_dir: str):
    import ray.data

    from console_log_parser_ray.stages.events import asof_join_events_orders

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    res = asof_join_events_orders(
        _events(sf_dir, ["event_id", "ts", "user_id"]), orders
    )
    return res.select_columns(["event_id", "last_orderkey"])


def _q_q3_join(sf_dir: str):
    """TPC-H Q3-shaped pipeline: broadcast semi-join of the tiny
    filtered customer side into orders, then a size-adaptive join
    (stages/relational.lookup_join) of filtered lineitem with filtered
    orders on the order key -- broadcast probe while the filtered
    orders side is metadata-bounded, co-partitioned hash_join above
    the cap -- then a grouped
    rollup.  Aggregates are count + integral-quantity sums, so the SQL
    mirror is exact."""
    import datetime

    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.stages.relational import lookup_join

    cutoff = datetime.datetime(1998, 6, 1)
    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    building = {
        r["c_custkey"]
        for r in cust.filter(
            expr="c_mktsegment == 'BUILDING'"
        ).take_all()  # tiny side: filtered customer keys only
    }
    keys_ref = ray.put(np.array(sorted(building), dtype=np.int64))

    def semi(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        from console_log_parser_ray.stages.dedup import _cached_get

        keys = _cached_get(keys_ref)
        return b.filter(
            pc.is_in(b.column("o_custkey"), value_set=pa.array(keys))
        )

    def before_cutoff(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        return b.filter(
            pc.less(b.column("o_orderdate"), pa.scalar(cutoff))
        ).select(["o_orderkey", "o_orderpriority", "o_custkey"])

    def shipped_after(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        return b.filter(
            pc.greater(b.column("l_shipdate"), pa.scalar(cutoff))
        ).select(["l_orderkey", "l_quantity"])

    orders = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_orderdate",
                     "o_orderpriority"],
        )
        .map_batches(before_cutoff, batch_format="pyarrow")
        .map_batches(semi, batch_format="pyarrow")
        .select_columns(["o_orderkey", "o_orderpriority"])
    )
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity", "l_shipdate"],
    ).map_batches(shipped_after, batch_format="pyarrow")
    # size-adaptive: the date+segment-filtered orders side is
    # metadata-counted and broadcast when bounded (lineitem never
    # shuffles), co-partitioned hash_join above the cap
    joined = lookup_join(
        li,
        orders,
        on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("l_quantity", pa.float64())]
        ),
    )

    def local_rollup(b):
        # Arrow hash pre-aggregation per block: the joined blocks are
        # co-partitioned on l_orderkey, so this shrinks the final
        # groupby's input from joined rows to (near-final) group rows
        # -- Ray's sort-based aggregate was 4x the join cost without
        # it.  Partial sums of integral quantities stay exact.
        import pyarrow as pa

        g = b.group_by(["l_orderkey", "o_orderpriority"]).aggregate(
            [("l_quantity", "count"), ("l_quantity", "sum")]
        )
        # rename by NAME: pyarrow's aggregate column order (keys first
        # vs aggregates first) is not a documented contract
        return pa.table(
            {
                "l_orderkey": g.column("l_orderkey"),
                "o_orderpriority": g.column("o_orderpriority"),
                "pn": g.column("l_quantity_count"),
                "ps": g.column("l_quantity_sum"),
            }
        )

    return (
        joined.map_batches(local_rollup, batch_format="pyarrow")
        .groupby(["l_orderkey", "o_orderpriority"])
        .aggregate(Sum("pn"), Sum("ps"))
        .rename_columns({"sum(pn)": "n_items", "sum(ps)": "sum_qty"})
    )


def _q_q10_returns(sf_dir: str):
    """TPC-H Q10-shaped pipeline: returned-item revenue per customer
    over one order-date year, top 20 -- a second multi-stage
    composition over the size-adaptive lookup_join (broadcast probe
    at bounded scale, co-partitioned hash_join above the cap).  Revenue is
    integer-exact milli-units (cents x (100 - discount pct)), so the
    SQL mirror hashes bit-identically; the global top-k is block-local
    partial top-k + one bounded fold (<= k rows per block shuffle)."""
    import datetime

    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.stages.events import topk_per_group
    from console_log_parser_ray.stages.relational import lookup_join

    lo = datetime.datetime(1999, 1, 1)
    hi = datetime.datetime(2000, 1, 1)

    def returned(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        b = b.filter(pc.equal(b.column("l_returnflag"), "R"))
        cents = pc.cast(
            pc.round(
                pc.multiply(b.column("l_extendedprice"), 100.0),
                ndigits=0,
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        disc = pc.cast(
            pc.round(
                pc.multiply(b.column("l_discount"), 100.0),
                ndigits=0,
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()), disc))
        # block-local pre-aggregation on the join key: the join (and
        # its shuffle) then carries one row per distinct orderkey per
        # block instead of one per lineitem -- integer sums stay exact
        g = (
            pa.table({"l_orderkey": b.column("l_orderkey"), "rev": rev})
            .group_by("l_orderkey")
            .aggregate([("rev", "sum")])
        )
        return pa.table(
            {
                "l_orderkey": g.column("l_orderkey"),
                "rev": g.column("rev_sum"),
            }
        )

    def in_window(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        keep = pc.and_(
            pc.greater_equal(b.column("o_orderdate"), pa.scalar(lo)),
            pc.less(b.column("o_orderdate"), pa.scalar(hi)),
        )
        return b.filter(keep).select(["o_orderkey", "o_custkey"])

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"],
    ).map_batches(returned, batch_format="pyarrow")
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(in_window, batch_format="pyarrow")
    # size-adaptive: the one-year-window orders side broadcasts when
    # bounded (pre-aggregated lineitem never shuffles), co-partitioned
    # hash_join above the cap
    joined = lookup_join(
        li,
        orders,
        on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("rev", pa.int64())]
        ),
    )

    def local_rollup(b):
        import pyarrow as pa

        g = b.group_by("o_custkey").aggregate([("rev", "sum")])
        return pa.table(
            {
                "o_custkey": g.column("o_custkey"),
                "ps": g.column("rev_sum"),
            }
        )

    per_cust = (
        joined.map_batches(local_rollup, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("ps"))
        .rename_columns({"sum(ps)": "revenue_milli"})
    )

    def add_const(b):
        import numpy as np
        import pyarrow as pa

        return b.append_column(
            "g", pa.array(np.zeros(b.num_rows, dtype=np.int64))
        )

    return topk_per_group(
        per_cust.map_batches(add_const, batch_format="pyarrow"),
        group_col="g",
        val_col="revenue_milli",
        k=20,
        id_col="o_custkey",
    ).drop_columns(["g"])


def _q_bloom_urgent(sf_dir: str):
    """Bloom-pushdown semi-join (stages/relational.bloom_semi_join):
    lineitems of urgent orders, rolled up per return flag.  The urgent
    order-key set is sketched into one 16 KiB bitmap (per-block
    partials OR-folded, broadcast once), ~80%% of lineitem rows are
    dropped BEFORE the co-partitioned shuffle, and the exact semi
    hash_join verifies -- false positives only cost shuffle rows, so
    the result equals the plain semi-join and the SQL mirror is
    exact (quantities are integral doubles)."""
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.stages.relational import bloom_semi_join

    urgent = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_orderpriority"],
        )
        .filter(expr="o_orderpriority == '1-URGENT'")
        .select_columns(["o_orderkey"])
    )
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity", "l_returnflag"],
    )
    joined = bloom_semi_join(
        li, urgent, on="l_orderkey", right_on="o_orderkey",
        m_bits=1 << 17,
    )

    def local_rollup(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        g = (
            pa.table(
                {
                    "l_returnflag": b.column("l_returnflag"),
                    "qty": pc.cast(b.column("l_quantity"), pa.int64()),
                }
            )
            .group_by("l_returnflag")
            .aggregate([("qty", "count"), ("qty", "sum")])
        )
        return pa.table(
            {
                "l_returnflag": g.column("l_returnflag"),
                "pn": g.column("qty_count"),
                "ps": g.column("qty_sum"),
            }
        )

    return (
        joined.map_batches(local_rollup, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(Sum("pn"), Sum("ps"))
        .rename_columns({"sum(pn)": "n_items", "sum(ps)": "sum_qty"})
    )


def _q_q5_region_revenue(sf_dir: str):
    """TPC-H Q5-shaped pipeline: local-supplier revenue per nation in
    one region over one order-date year -- a six-table composition
    that picks the join strategy by side size: region/nation resolved
    driver-side (tiny constants), the filtered supplier (suppkey ->
    nationkey) pair broadcast ONCE via ray.put and applied as
    index_in/take per batch, and the two composition joins (orders x
    customer on custkey, lineitem x orders+customer on orderkey)
    size-adaptive (stages/relational.lookup_join: broadcast probe
    while the filtered side is metadata-bounded, co-partitioned
    hash_join above the cap) with block-local pre-aggregation on the
    join key.  Revenue is integer milli-units (cents x (100 -
    discount pct)), so the SQL mirror hashes bit-identically."""
    import datetime

    import pyarrow as pa
    import pyarrow.compute as _pc
    import pyarrow.parquet as pq

    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.stages.relational import lookup_join

    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1997, 1, 1)

    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    rkeys = region.filter(
        _pc.equal(region.column("r_name"), "ASIA")
    ).column("r_regionkey")
    nat = nation.filter(
        _pc.is_in(
            nation.column("n_regionkey"), value_set=rkeys.combine_chunks()
        )
    )
    # tiny constants: close over the <=25 in-region nation keys/names
    nat_keys = [int(k) for k in nat.column("n_nationkey").to_pylist()]
    nat_names = {
        int(k): n
        for k, n in zip(
            nat.column("n_nationkey").to_pylist(),
            nat.column("n_name").to_pylist(),
        )
    }
    # small side: filtered supplier (suppkey -> nationkey), broadcast
    # once -- two int64 arrays, applied per batch as index_in + take
    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )
    sup = sup.filter(
        _pc.is_in(
            sup.column("s_nationkey"),
            value_set=pa.array(nat_keys, pa.int64()),
        )
    )
    sup_ref = ray.put(
        (
            sup.column("s_suppkey").combine_chunks(),
            sup.column("s_nationkey").combine_chunks(),
        )
    )

    def cust_in_region(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        keep = pc.is_in(
            b.column("c_nationkey"), value_set=pa.array(nat_keys, pa.int64())
        )
        return b.filter(keep).select(["c_custkey", "c_nationkey"])

    def in_window(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        keep = pc.and_(
            pc.greater_equal(b.column("o_orderdate"), pa.scalar(lo)),
            pc.less(b.column("o_orderdate"), pa.scalar(hi)),
        )
        return b.filter(keep).select(["o_orderkey", "o_custkey"])

    def rev_milli(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        cents = pc.cast(
            pc.round(
                pc.multiply(b.column("l_extendedprice"), 100.0),
                ndigits=0,
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        disc = pc.cast(
            pc.round(
                pc.multiply(b.column("l_discount"), 100.0),
                ndigits=0,
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        rev = pc.multiply(
            cents, pc.subtract(pa.scalar(100, pa.int64()), disc)
        )
        # pre-aggregate on the join PAIR (orderkey, suppkey): the
        # shuffle then carries one row per distinct pair per block
        g = (
            pa.table(
                {
                    "l_orderkey": b.column("l_orderkey"),
                    "l_suppkey": b.column("l_suppkey"),
                    "rev": rev,
                }
            )
            .group_by(["l_orderkey", "l_suppkey"])
            .aggregate([("rev", "sum")])
        )
        return pa.table(
            {
                "l_orderkey": g.column("l_orderkey"),
                "l_suppkey": g.column("l_suppkey"),
                "rev": g.column("rev_sum"),
            }
        )

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(in_window, batch_format="pyarrow")
    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    ).map_batches(cust_in_region, batch_format="pyarrow")
    # both composition joins are size-adaptive: the filtered customer
    # side and the window-filtered oc side are metadata-counted and
    # broadcast when bounded (zero shuffles on the big side), falling
    # back to the co-partitioned hash_join above the cap
    oc = lookup_join(
        orders,
        cust,
        on="o_custkey",
        right_on="c_custkey",
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
        ),
    ).select_columns(["o_orderkey", "c_nationkey"])

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"],
    ).map_batches(rev_milli, batch_format="pyarrow")
    lo_joined = lookup_join(
        li,
        oc,
        on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("rev", pa.int64()),
            ]
        ),
    )

    def local_supplier_rollup(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        from console_log_parser_ray.stages.dedup import _cached_get

        sup_keys, sup_nat = _cached_get(sup_ref)
        idx = pc.index_in(b.column("l_suppkey"), value_set=sup_keys)
        s_nat = pc.take(sup_nat, idx)
        # local-supplier predicate; unmatched suppliers yield null ==
        # null -> filter drops them (inner-join semantics)
        b = pa.table(
            {"n_nationkey": s_nat, "rev": b.column("rev")}
        ).filter(pc.equal(s_nat, b.column("c_nationkey")))
        g = b.group_by("n_nationkey").aggregate([("rev", "sum")])
        return pa.table(
            {
                "n_nationkey": g.column("n_nationkey"),
                "ps": g.column("rev_sum"),
            }
        )

    per_nation = (
        lo_joined.map_batches(
            local_supplier_rollup, batch_format="pyarrow"
        )
        .groupby("n_nationkey")
        .aggregate(Sum("ps"))
        .rename_columns({"sum(ps)": "revenue_milli"})
    )

    def name_nation(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        keys = pa.array(sorted(nat_names), pa.int64())
        names = pa.array([nat_names[int(k)] for k in sorted(nat_names)])
        idx = pc.index_in(b.column("n_nationkey"), value_set=keys)
        return pa.table(
            {
                "n_name": pc.take(names, idx),
                "revenue_milli": b.column("revenue_milli"),
            }
        )

    return per_nation.map_batches(name_nation, batch_format="pyarrow")


def _q_lang_rank(sf_dir: str):
    """Distributed window function: dense_rank of document length
    within its language partition, computed from the (lang, n_chars)
    histogram without shuffling the corpus
    (stages/relational.dense_rank)."""
    from console_log_parser_ray.stages.relational import dense_rank

    return dense_rank(
        _docs(sf_dir).select_columns(["doc_id", "lang", "n_chars"]),
        "lang",
        "n_chars",
        descending=True,
    )


def _q_idf_rarity(sf_dir: str):
    """Exact corpus document-frequency rarity signals (integer CCNet-
    style quality skeleton): per-doc token occurrences, summed token
    DF, and hapax count -- token-hash bucket groups compute DF locally
    (stages/textan.idf_rarity)."""
    from console_log_parser_ray.stages.textan import idf_rarity

    return idf_rarity(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_longest_docs(sf_dir: str):
    """Per-group arg-top-k by VALUE (stages/events.topk_per_group):
    the 3 longest documents per language, ties by doc_id -- block-local
    per-group top-k partials, one bounded shuffle (<= k rows per group
    per block)."""
    from console_log_parser_ray.stages.events import topk_per_group

    return topk_per_group(
        _docs(sf_dir).select_columns(["doc_id", "lang", "n_chars"]),
        "lang",
        "n_chars",
        k=3,
    )


def _q_funnel(sf_dir: str):
    """Two-step funnel (stages/events.funnel_two_step): per user with a
    signup, the first signup time, the first purchase at or after it,
    and 7-day conversion -- type-filtered before the one user-hash
    bucket shuffle, each bucket resolved with three vectorized pandas
    group ops (no per-user dispatch)."""
    from console_log_parser_ray.stages.events import funnel_two_step

    return funnel_two_step(
        _events(sf_dir).select_columns(["user_id", "ts", "event_type"]),
        first_ev="signup",
        second_ev="purchase",
    )


def _q_grok_prompt(sf_dir: str):
    """Generic grok/regex parse (stages/textan.grok_extract): the raw
    transcript turns' OSC-0 window title (``ESC ] 0 ; user@host: cwd
    BEL``) extracted into typed (osc_user, osc_host, osc_cwd) columns
    -- the reusable schema-on-read sibling of the transcript FSM's
    OSC/prompt-cwd surface (reference terminalparser J3), one RE2
    kernel per batch, no shuffle."""
    from console_log_parser_ray.stages.textan import grok_extract

    return grok_extract(
        _transcripts_ds(sf_dir).select_columns(
            ["conv_id", "turn_idx", "text"]
        ),
        pattern=(
            "\x1b\\]0;(?P<osc_user>[a-z]+)@"
            "(?P<osc_host>[A-Za-z0-9-]+): (?P<osc_cwd>[^\x07]*)\x07"
        ),
    )


def _q_grok_dispatch(sf_dir: str):
    """Ordered multi-pattern grok (stages/textan.grok_dispatch): the
    two prompt dialects of the raw transcript corpus -- OSC-0 window
    title and the SGR-colored MINGW64 prompt -- extracted into shared
    (user, host, cwd) columns with a per-row dialect tag; first match
    wins, one RE2 kernel per pattern per batch, no shuffle."""
    from console_log_parser_ray.stages.textan import grok_dispatch

    return grok_dispatch(
        _transcripts_ds(sf_dir).select_columns(
            ["conv_id", "turn_idx", "text"]
        ),
        patterns=[
            (
                "osc_title",
                "\x1b\\]0;(?P<user>[a-z]+)@"
                "(?P<host>[A-Za-z0-9-]+): (?P<cwd>[^\x07]*)\x07",
            ),
            (
                "mingw",
                "\x1b\\[32m(?P<user>[a-z]+)@(?P<host>[A-Za-z0-9-]+) "
                "\x1b\\[35mMINGW64 \x1b\\[33m(?P<cwd>[^\x1b]*)",
            ),
        ],
    )


def _q_log_templates(sf_dir: str):
    """Drain-style log template mining (stages/textan.log_templates):
    the 50 most frequent masked line templates of the document corpus
    (hex/UUID/number fields replaced by placeholders) with counts and
    a deterministic example line -- batch-local line explode + RE2
    mask chain + per-block partial counts; the shuffle moves one row
    per distinct template per block."""
    from console_log_parser_ray.stages.textan import log_templates

    return log_templates(
        _docs(sf_dir).select_columns(["text"]), k=50
    )


def _q_multiline_records(sf_dir: str):
    """Multiline log-record assembly (stages/textan.stitch_multiline):
    continuation lines (leading space/tab) stitched onto the preceding
    record, one row per record with its ordinal, text and line count
    -- a stateless batch-local explode + cumsum + re-join, no
    shuffle."""
    from console_log_parser_ray.stages.textan import stitch_multiline

    return stitch_multiline(
        _docs(sf_dir).select_columns(["doc_id", "text"])
    )


def _q_error_bursts(sf_dir: str):
    """Error-rate burst detection (stages/events.error_bursts):
    maximal runs of consecutive 15-min windows holding >= 3 error
    events, with burst length, total and peak counts -- per-block
    window pre-counts fold into a windows table bounded by time-span
    (not rows); the island scan is one vectorized data-plane task."""
    from console_log_parser_ray.stages.events import error_bursts

    return error_bursts(
        _events(sf_dir).select_columns(["ts", "event_type"]),
        window_us=900 * 1_000_000,
        threshold=3,
    )


def _q_funnel3(sf_dir: str):
    """Three-step ordered funnel (stages/events.funnel_steps): per
    user with a signup, the first signup, the first view at or after
    it, the first purchase at or after that, and 14-day full-chain
    conversion -- k-1 vectorized merge+group-min rounds per user-hash
    bucket, int64-exact end to end."""
    from console_log_parser_ray.stages.events import funnel_steps

    return funnel_steps(
        _events(sf_dir).select_columns(["user_id", "ts", "event_type"]),
        steps=["signup", "view", "purchase"],
        window_us=14 * 86400 * 1_000_000,
    )


def _q_user_event_matrix(sf_dir: str):
    """Pivot / crosstab (stages/events.pivot_counts): one row per user
    with a count column per event type -- per-batch Arrow group-by
    partials, key-hash bucket fold + vectorized pandas pivot."""
    from console_log_parser_ray.stages.events import pivot_counts

    return pivot_counts(
        _events(sf_dir).select_columns(["user_id", "event_type"]),
        "user_id",
        "event_type",
        categories=("click", "error", "purchase", "signup", "view"),
    )


def _q_rarest_token(sf_dir: str):
    """Per-document rarest token by corpus DF (argmin with
    lexicographic tie-break) -- the TF-IDF term-selection skeleton
    (stages/textan.rarest_token): token-hash buckets compute DF and
    per-doc in-bucket argmins, doc-hash buckets fold the candidates."""
    from console_log_parser_ray.stages.textan import rarest_token

    return rarest_token(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_order_week_events(sf_dir: str):
    """Equi + range interval join (stages/relational.range_count_join):
    per order, the number of the customer's events in the 7 days from
    the order date -- co-partitioned on the equi key only, counts via
    one vectorized boundary merge per bucket group, LEFT semantics
    (zero counts kept)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from console_log_parser_ray.stages.relational import range_count_join

    week_us = 7 * 86400 * 1_000_000

    def add_end(b: pa.Table) -> pa.Table:
        start = b.column("o_orderdate").cast(pa.int64())
        return b.append_column(
            "o_end", pc.add(start, pa.scalar(week_us, pa.int64()))
        )

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(add_end, batch_format="pyarrow")
    events = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts"],
    )
    return range_count_join(
        orders,
        events,
        on="o_custkey",
        right_on="user_id",
        start_col="o_orderdate",
        end_col="o_end",
        ts_col="ts",
        keep_cols=["o_orderkey"],
    )


def _q_q1_pricing(sf_dir: str):
    import ray.data
    from ray.data.aggregate import Count, Sum

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )
    return (
        li.groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("l_quantity"), Count())
        .rename_columns(
            {"sum(l_quantity)": "sum_qty", "count()": "count_order"}
        )
    )


def _q_media_features(sf_dir: str):
    """Decode-and-featurize over the cached deterministic media table;
    the oracle SQL recomputes the integer pixel aggregates from the
    payload blobs (hex walk) and checks the decoded dimensions against
    the stored metadata columns."""
    import ray.data

    from console_log_parser_ray.stages.multimodal import (
        decode_features,
        ensure_media_table,
    )

    path = ensure_media_table(200)
    ds = ray.data.read_parquet(path)
    return decode_features(ds).select_columns(
        ["media_id", "width", "height", "pixel_sum", "n_pixels", "pixel_mean"]
    )




def _q_media_resize(sf_dir: str):
    """Integer box-downsample (factor 4) over the media table; every
    output pixel is floor(block mean), so the resized image's pixel
    sum is exactly recomputable from the payload hex walk in SQL."""
    import ray.data

    from console_log_parser_ray.stages.multimodal import (
        ensure_media_table,
        resize_images,
    )

    path = ensure_media_table(200)
    ds = ray.data.read_parquet(path)
    return resize_images(ds, factor=4).select_columns(
        ["media_id", "rw", "rh", "resized_sum"]
    )


def _q_media_frames(sf_dir: str):
    """Temporal frame sampling (every 4th frame) over the synthetic
    video table; frame counts and the sampled pixel sum are exact
    integers recomputable from the payload hex walk."""
    import ray.data

    from console_log_parser_ray.stages.multimodal import (
        ensure_video_table,
        sample_frames,
    )

    path = ensure_video_table(100)
    ds = ray.data.read_parquet(path)
    return sample_frames(ds, every=4).select_columns(
        ["media_id", "n_frames", "n_sampled", "sampled_sum"]
    )


def _synth_frames(sf_dir: str):
    """Deterministically re-cut the cached transcripts into
    asciinema-style frames: each turn becomes one newline-terminated
    frame, split mid-line into two frames (ts i and i+0.1) when
    turn_idx %% 3 == 0 and the line exceeds 4 chars."""
    import pyarrow as pa

    import ray.data

    path = _cache.ensure_transcripts(sf_dir)
    src_ds = ray.data.read_parquet(path, columns=["conv_id", "turn_idx", "text"])

    def to_frames(batch: pa.Table) -> pa.Table:
        convs = batch.column("conv_id").to_pylist()
        idxs = batch.column("turn_idx").to_pylist()
        texts = batch.column("text").to_pylist()
        out = {"conv_id": [], "frame_idx": [], "ts": [], "data": []}
        for c, i, t in zip(convs, idxs, texts):
            line = t + "\n"
            cut = len(line) // 2 if len(line) > 4 and i % 3 == 0 else 0
            pieces = [line[:cut], line[cut:]] if cut else [line]
            for p, piece in enumerate(pieces):
                out["conv_id"].append(c)
                out["frame_idx"].append(i * 4 + p)
                out["ts"].append(float(i) + p * 0.1)
                out["data"].append(piece)
        return pa.table(
            {
                "conv_id": pa.array(out["conv_id"], pa.string()),
                "frame_idx": pa.array(out["frame_idx"], pa.int32()),
                "ts": pa.array(out["ts"], pa.float64()),
                "data": pa.array(out["data"], pa.string()),
            }
        )

    return src_ds.map_batches(to_frames, batch_format="pyarrow")


def _q_asciinema_clean_text(sf_dir: str):
    """Asciinema-source variant of the flagship parse: synthetic frames
    are reassembled by the frame->line grouped scan and parsed.
    Reassembly is exact, so the result matches the generator's per-turn
    ground truth."""
    from console_log_parser_ray.pipelines import flagship
    from console_log_parser_ray.sources.asciinema import frames_to_turns

    turns = frames_to_turns(_synth_frames(sf_dir)).drop_columns(["ts"])
    parsed = flagship.parse_sessions(turns)
    return parsed.select_columns(["conv_id", "turn_idx", "clean_text"])


def _q_recording_end(sf_dir: str):
    """Recording end-time per conversation (reference
    asciinema2html.py's end-of-recording timestamp derived from the
    last frame): max frame ts + frame count, one groupby aggregate over
    the frame stream."""
    from ray.data.aggregate import Count, Max

    import pyarrow as pa

    agg = _synth_frames(sf_dir).groupby("conv_id").aggregate(
        Max("ts"), Count()
    )

    def rename(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": tbl.column("conv_id"),
                "end_ts": tbl.column("max(ts)"),
                "n_frames": tbl.column("count()"),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow")


# A style-0 output line: one of the generator's five SGR openers, a
# plain payload with no further escapes, and a full reset.  Both the
# engine filter and the DuckDB oracle use this exact RE2 pattern.
_SGR_LINE_RE = (
    "^\x1b\\[(01;32|33|1;31|38;5;196|04)m[^\x1b]*\x1b\\[0m$"
)


def _q_html_escape(sf_dir: str):
    """HTML entity escaping (reference terminal2html.py:48-53) over
    every parsed turn's clean text -- vectorized replace chain."""
    import pyarrow as pa

    from console_log_parser_ray.functions.html import escape_html_array

    def esc(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": tbl.column("conv_id"),
                "turn_idx": tbl.column("turn_idx"),
                "html": escape_html_array(tbl.column("clean_text")),
            }
        )

    return _parsed(sf_dir).map_batches(esc, batch_format="pyarrow")


def _q_sgr_spans(sf_dir: str):
    """SGR -> styled-span conversion (reference terminal2html.py:249-355)
    with the MyDracula palette under DarkBg/BoldAsBright policies, over
    the single-SGR output lines whose expected span HTML has a closed
    form the SQL oracle can state."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.functions.html import render_styled_line

    def convert(tbl: pa.Table) -> pa.Table:
        mask = pc.match_substring_regex(tbl.column("text"), _SGR_LINE_RE)
        sub = tbl.filter(mask)
        html = [
            render_styled_line(t) for t in sub.column("text").to_pylist()
        ]
        return pa.table(
            {
                "conv_id": sub.column("conv_id"),
                "turn_idx": sub.column("turn_idx"),
                "html": pa.array(html, pa.string()),
            }
        )

    import ray.data

    path = _cache.ensure_transcripts(sf_dir)
    ds = ray.data.read_parquet(
        path, columns=["conv_id", "turn_idx", "text"]
    )
    return ds.map_batches(convert, batch_format="pyarrow")


def _q_index_entries(sf_dir: str):
    """Cross-session index with first-wins title dedup (reference
    main.py:29-128): one row per distinct title, the lowest conv_id
    wins."""
    from console_log_parser_ray.functions.html import index_entries

    return index_entries(_parsed(sf_dir))


# chapters_enrich config knobs: conversations below _CFG_CONVS get side
# tables, command numbers are enumerated up to _CFG_BOUND (far above any
# generated conversation's command count at every sf).
_CFG_CONVS = 100
_CFG_BOUND = 500


def _q_chapters_enrich(sf_dir: str):
    """Batch todo-list config -> live parse + enrich, end-to-end: a
    deterministic todo JSON (with /* */ comments, exercising the
    reference's comment-stripping loader, reference main.py:173-264) is
    parsed by the config reader into an EnrichConfig, and every
    (conv, cmd) a side table touches comes back with its chapter title,
    suppression flag and renumbered hop label (reference
    terminal2html.py:16-38)."""
    import json
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.state.config import load_todo_config

    n_convs = _cache.SIZES.get(_cache.sf_name(sf_dir), _cache._DEFAULT)[0]
    data: dict = {"files": []}
    for ci in range(min(_CFG_CONVS, n_convs)):
        fid = "conv{:06d}".format(ci)
        data["files"].append({"id": fid})
        if ci % 7 == 0:
            data[fid + "-chapters"] = {
                str(c): "ch {} {}".format(fid, c)
                for c in range(1, _CFG_BOUND + 1)
                if c % 5 == 1
            }
        if ci % 3 == 0:
            data[fid + "-suppress"] = [
                c for c in range(1, _CFG_BOUND + 1) if c % 4 == 2
            ]
        if ci % 5 == 0 and ci + 1 < n_convs:
            target = "conv{:06d}".format(ci + 1)
            hops: list[int] = []
            for c in range(1, _CFG_BOUND + 1):
                if c % 6 == 3:
                    hops.extend([c, c + 1])
            data[fid + "-hopto"] = {
                "id": target,
                "hops": hops,
                "pre": "",
                "to": target,
                "post": "",
            }
    text = "/* deterministic driver config */\n" + json.dumps(data)
    path = os.path.join(
        tempfile.gettempdir(),
        "clpr_todo_{}.json".format(_cache.sf_name(sf_dir)),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    cfg, _sup_map, _files = load_todo_config(path)

    def pick(tbl: pa.Table) -> pa.Table:
        mask = pc.or_(
            pc.or_(
                pc.not_equal(tbl.column("chapter_title"), ""),
                tbl.column("suppressed"),
            ),
            pc.not_equal(tbl.column("hop_to"), ""),
        )
        return tbl.filter(mask).select(
            [
                "conv_id",
                "cmd_count",
                "chapter_title",
                "suppressed",
                "hop_to",
                "hop_label",
            ]
        )

    from console_log_parser_ray.stages.dedup import distinct_rows

    touched = _enriched(sf_dir, cfg).map_batches(pick, batch_format="pyarrow")
    # per-turn rows within one command block are identical; keep one
    # via a bucketed distinct (bounded group dispatch)
    return distinct_rows(touched, ["conv_id", "cmd_count"])


def _q_redact(sf_dir: str):
    """PII-style regex scrubbing over every parsed turn's clean text
    (user@host prompts become <USER@HOST>, dotted quads <IP>).  Reads
    the materialized parse (ensure_enriched) -- redaction treats the
    parse output as its input corpus, so it amortizes the session scan
    like the rest of the analytics family."""
    from console_log_parser_ray.stages.textan import redact

    ds = _enriched_cached(sf_dir, ["conv_id", "turn_idx", "clean_text"])
    return redact(ds, text_col="clean_text", out_col="redacted").drop_columns(
        ["clean_text"]
    )


def _q_normalize(sf_dir: str):
    """Training-data text normalization over parsed clean text:
    lowercase, collapse blank runs, trim.  Reads the materialized
    parse (ensure_enriched), as redact does."""
    from console_log_parser_ray.stages.textan import normalize_text

    ds = _enriched_cached(sf_dir, ["conv_id", "turn_idx", "clean_text"])
    return normalize_text(
        ds, text_col="clean_text", out_col="norm"
    ).drop_columns(["clean_text"])


def _q_curate(sf_dir: str):
    """Composite corpus-curation pipeline -- the shape of a real
    training-data prep job as ONE streaming plan: union with planted
    duplicate copies -> quality gate (token-count band) -> exact dedup
    (min doc_id per identical text) -> deterministic 20% hash sample."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.stages.dedup import exact_dedup
    from console_log_parser_ray.stages.events import deterministic_sample

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])

    def shift(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(b.column("doc_id"), 1000000),
                "text": b.column("text"),
            }
        )

    def qgate(b: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(b.column("text"), r"\S+")
        return b.filter(
            pc.and_(pc.greater_equal(n, 20), pc.less_equal(n, 10000))
        )

    unioned = docs.union(docs.map_batches(shift, batch_format="pyarrow"))
    gated = unioned.map_batches(qgate, batch_format="pyarrow")
    return deterministic_sample(exact_dedup(gated), rate_pct=20).select_columns(
        ["doc_id"]
    )


def _q_ngram_topk(sf_dir: str):
    """Corpus-wide top-20 token trigrams over the documents table,
    pre-combined per block before the one small groupby-sum."""
    from console_log_parser_ray.stages.textan import ngram_topk

    return ngram_topk(
        _docs(sf_dir).select_columns(["text"]), n=3, k=20
    )


def _q_twebber_hops(sf_dir: str):
    """Two-recording time alignment (reference twebber.py:56-105) over
    deterministic frame streams derived from the events table: each
    adjacent user pair forms one recording pair, frame times from their
    event timestamps."""
    import pyarrow as pa

    from console_log_parser_ray.stages.events import twebber_hops

    ev = _events(sf_dir).select_columns(["user_id", "ts"])

    def to_frames(batch: pa.Table) -> pa.Table:
        users = batch.column("user_id").to_pylist()
        tss = [t.cast("int64").as_py() / 1e6 for t in batch.column("ts")]
        out = {"pair_id": [], "side": [], "start_ts": [], "frame_ts": []}
        for u, t in zip(users, tss):
            pair = "pair{:04d}".format(u // 2)
            side = "left" if u % 2 == 0 else "right"
            out["pair_id"].append(pair)
            out["side"].append(side)
            out["start_ts"].append(1000.0 + (u % 2) * 7.5)
            out["frame_ts"].append(t % 10000)
        return pa.table(
            {
                "pair_id": pa.array(out["pair_id"], pa.string()),
                "side": pa.array(out["side"], pa.string()),
                "start_ts": pa.array(out["start_ts"], pa.float64()),
                "frame_ts": pa.array(out["frame_ts"], pa.float64()),
            }
        )

    frames = ev.map_batches(to_frames, batch_format="pyarrow")
    return twebber_hops(frames)


def _q_doc_rank_big(sf_dir: str):
    """doc_rank forced onto the above-max_distinct data-plane path
    (two-level range prefix offsets joined in-band, nothing collected
    or broadcast) -- same SQL oracle as doc_rank, so the driver pins
    big-path == collected-path exactness end to end."""
    from console_log_parser_ray.stages.relational import global_row_number

    return global_row_number(
        _docs(sf_dir).select_columns(["doc_id", "n_chars"]),
        value_col="n_chars",
        id_col="doc_id",
        max_distinct=10,
    )


def _q_lang_rank_big(sf_dir: str):
    """lang_rank forced onto the above-max_distinct path (histogram
    ranked in group-hash buckets, merged via a co-partitioned
    value-hash shuffle) -- same SQL oracle as lang_rank."""
    from console_log_parser_ray.stages.relational import dense_rank

    return dense_rank(
        _docs(sf_dir).select_columns(["doc_id", "lang", "n_chars"]),
        "lang",
        "n_chars",
        descending=True,
        max_distinct=10,
    )


def _q_top_decile_big(sf_dir: str):
    """top_decile_docs forced onto the above-max_distinct path (the
    threshold comes from histogram_rank_select's distributed binary
    search, O(1) driver memory) -- same SQL oracle as
    top_decile_docs."""
    from console_log_parser_ray.stages.events import filter_top_quantile

    return filter_top_quantile(
        _docs(sf_dir).select_columns(["doc_id", "n_chars"]),
        value_col="n_chars",
        q=0.9,
        max_distinct=10,
    )


def _q_mad_outliers_big(sf_dir: str):
    """mad_outliers forced onto the above-max_distinct path (both
    medians via histogram_rank_select; the deviation histogram derives
    from the value histogram) -- same SQL oracle as mad_outliers."""
    from console_log_parser_ray.stages.events import mad_outlier_flags

    return mad_outlier_flags(
        _docs(sf_dir).select_columns(["doc_id", "n_chars"]),
        value_col="n_chars",
        id_col="doc_id",
        k=3,
        max_distinct=10,
    )


#: BM25 query terms shared by the Ray query and its generated SQL
#: oracle ("stream" never occurs in the synthetic corpus, pinning the
#: df=0 / tf=0 zero-contribution path on both sides)
_BM25_TERMS = ("join", "window", "hash", "stream")


def _q_postings(sf_dir: str):
    """Capped inverted index over documents: per token with df >= 2,
    its document frequency and the 8 smallest containing doc ids
    (stages/search.postings) -- token-hash buckets compute df locally
    and emit at most k ids per token; one shuffle, vocabulary-sized
    output."""
    from console_log_parser_ray.stages.search import postings

    return postings(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        k=8,
        min_df=2,
    )


def _q_bm25(sf_dir: str):
    """BM25 keyword scoring with the rational Robertson idf
    (stages/search.bm25_keyword): one streaming projection to integer
    (dl, tf) rows, driver-folded term statistics, one vectorized
    scoring pass; zero shuffles, and the float score column is
    bit-exact against the generated SQL mirror because both engines
    evaluate the identical IEEE expression tree."""
    from console_log_parser_ray.stages.search import bm25_keyword

    return bm25_keyword(
        _docs(sf_dir).select_columns(["doc_id", "text"]), _BM25_TERMS
    )


def _q_token_budget(sf_dir: str):
    """Per-language token-budget cap (stages/export.token_budget):
    docs taken in deterministic hash order until each language's
    running token total exceeds 2000 -- the cumulative-quota gate of
    mixture curation, computed with the window-family bucket recipe."""
    from console_log_parser_ray.stages.export import token_budget

    return token_budget(
        _docs(sf_dir).select_columns(["doc_id", "lang", "text"]),
        budget=2000,
    )


def _q_bpe_pairs(sf_dir: str):
    """Top-50 adjacent character pairs within tokens, occurrence-
    weighted (stages/textan.bpe_pairs) -- one BPE tokenizer-training
    iteration's merge-candidate table; per-block dictionary-encoded
    partials, one small groupby-sum, exact top-k reduction."""
    from console_log_parser_ray.stages.textan import bpe_pairs

    return bpe_pairs(
        _docs(sf_dir).select_columns(["text"]), k=50
    )


def _q_hash_embed(sf_dir: str):
    """Feature-hashing vectorization (stages/search.hash_embed):
    token -> md5-derived dimension with +/-1 sign, folded per doc into
    sparse (doc, dim, weight) integer rows -- the model-free embedding
    stage; stateless map_batches, zero shuffles."""
    from console_log_parser_ray.stages.search import hash_embed

    return hash_embed(
        _docs(sf_dir).select_columns(["doc_id", "text"]), dim=64
    )


def _q_rollup_pricing(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus) over lineitem
    (stages/relational.rollup_agg): finest level = one partial+final
    groupby over integer cents, every subtotal level folded from the
    finest aggregate -- base data read once."""
    import ray.data
    from console_log_parser_ray.stages.relational import rollup_agg

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_extendedprice"],
    )
    return rollup_agg(
        li, ["l_returnflag", "l_linestatus"], "l_extendedprice"
    )


def _q_lang_pctrank(sf_dir: str):
    """percent_rank() + cume_dist() OVER (PARTITION BY lang ORDER BY
    n_chars) (stages/relational.rank_fractions_per_group): both
    fractions collapse onto the (lang, n_chars) histogram; each value
    is ONE IEEE division of exact integers, so the doubles are
    bit-identical to DuckDB's."""
    from console_log_parser_ray.stages.relational import (
        rank_fractions_per_group,
    )

    return rank_fractions_per_group(
        _docs(sf_dir).select_columns(["doc_id", "lang", "n_chars"]),
        "lang",
        "n_chars",
    )


def _q_lang_pctrank_big(sf_dir: str):
    """lang_pctrank forced onto the above-max_distinct path (histogram
    ranked in group-hash buckets, merged via the co-partitioned
    value-hash _attach_map_cols shuffle -- nothing collected or
    broadcast) -- same SQL oracle as lang_pctrank."""
    from console_log_parser_ray.stages.relational import (
        rank_fractions_per_group,
    )

    return rank_fractions_per_group(
        _docs(sf_dir).select_columns(["doc_id", "lang", "n_chars"]),
        "lang",
        "n_chars",
        max_distinct=10,
    )


def _q_user_gapfill(sf_dir: str):
    """Dense per-user hourly series (stages/events.gapfill_user_windows):
    tumbling-window counts densified with zero-filled gaps between each
    user's first and last active window; per-block (user, window)
    partials before the one user-hash bucket shuffle."""
    from console_log_parser_ray.stages.events import gapfill_user_windows

    return gapfill_user_windows(
        _events(sf_dir).select_columns(["user_id", "ts"])
    )


def _q_latest_state(sf_dir: str):
    """CDC last-writer-wins compaction (stages/events.latest_state):
    one row per (user_id, event_type) -- the greatest (ts, event_id) --
    blocks compact locally before the one key-hash bucket shuffle."""
    from console_log_parser_ray.stages.events import latest_state

    return latest_state(
        _events(sf_dir).select_columns(
            ["user_id", "event_type", "event_id", "ts", "value"]
        )
    )


def _q_fuzzy_name_pairs(sf_dir: str):
    """Edit-distance<=1 fuzzy self-join over customer names
    (stages/dedup.fuzzy_pairs_ed1): FastSS deletion-neighborhood
    signatures built vectorized (one Arrow slice+concat pass per
    deletion position), signature-hash co-bucketing for candidates,
    exact verify on the bounded candidate set, pair-level distinct."""
    import ray.data

    from console_log_parser_ray.stages.dedup import fuzzy_pairs_ed1

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"],
    )
    return fuzzy_pairs_ed1(
        cust, id_col="c_custkey", text_col="c_name", max_len=64
    )


def _q_cooccur_top(sf_dir: str):
    """Top-50 document-level co-occurrence pairs over the 64
    highest-DF tokens (stages/textan.cooccur_topk): token-hash-bucket
    DF + bounded per-bucket top-V candidates for the vocab, then dense
    V^2 bincount partials per block and one tiny pair groupby."""
    from console_log_parser_ray.stages.textan import cooccur_topk

    return cooccur_topk(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        vocab_size=64,
        k=50,
    )


def _q_profile_orders(sf_dir: str):
    """Per-column table profile of orders (stages/profile.
    profile_table): exact row / null / distinct counts per column;
    block-local per-column value dedup, value-hash buckets, and a
    schema-width-bounded driver assembly."""
    import ray.data

    from console_log_parser_ray.stages.profile import profile_table

    return profile_table(
        ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"))
    )


def _q_regr_price_qty(sf_dir: str):
    """Per-flag least-squares price-vs-quantity regression from exact
    integer moments (stages/relational.group_regression): one Arrow
    group_by partial per block, one tiny groupby-sum, closed-form IEEE
    finish mirrored literally in the SQL oracle."""
    import ray.data

    from console_log_parser_ray.stages.relational import group_regression

    return group_regression(
        ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_returnflag", "l_quantity", "l_extendedprice"],
        ),
        group_col="l_returnflag",
        x_col="l_quantity",
        y_col="l_extendedprice",
        x_scale=1,
        y_scale=100,
    )


def _q_snapshot_diff_cust(sf_dir: str):
    """CDC snapshot diff (stages/relational.snapshot_diff): customer
    vs a deterministically-simulated next snapshot (keys < 50 removed,
    every 7th balance bumped, keys < 25 cloned as additions at
    +1000000); classification over one co-partitioned FULL OUTER
    join."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from console_log_parser_ray.stages.relational import snapshot_diff

    cols = ["c_custkey", "c_acctbal", "c_mktsegment"]
    old = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=cols
    )

    def modify(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater_equal(b.column("c_custkey"), 50))
        k = b.column("c_custkey")
        bump = pc.equal(
            pc.subtract(
                k, pc.multiply(pc.divide(k, 7), pa.scalar(7, pa.int32()))
            ),
            0,
        )
        bal = pc.if_else(
            bump,
            pc.add(b.column("c_acctbal"), pa.scalar(1.0)),
            b.column("c_acctbal"),
        )
        return pa.table(
            {
                "c_custkey": k,
                "c_acctbal": bal,
                "c_mktsegment": b.column("c_mktsegment"),
            }
        )

    def additions(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less(b.column("c_custkey"), 25))
        return pa.table(
            {
                "c_custkey": pc.add(
                    b.column("c_custkey").cast(pa.int64()),
                    pa.scalar(1000000, pa.int64()),
                ),
                "c_acctbal": b.column("c_acctbal"),
                "c_mktsegment": b.column("c_mktsegment"),
            }
        )

    new = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=cols
    )
    new = new.map_batches(modify, batch_format="pyarrow").union(
        new.map_batches(additions, batch_format="pyarrow")
    )
    return snapshot_diff(
        old, new, key="c_custkey",
        compare_cols=["c_acctbal", "c_mktsegment"],
    )


def _q_throttled_events(sf_dir: str):
    """Debounce / rate-limit filter (stages/events.throttle_events):
    keep an event iff first of its (user, type) key or > 10 min after
    the key's previous raw event (LAG semantics); bucketized lexsort +
    vectorized diff mask."""
    from console_log_parser_ray.stages.events import throttle_events

    return throttle_events(
        _events(sf_dir).select_columns(
            ["event_id", "user_id", "event_type", "ts"]
        ),
        window_us=600_000_000,
    )


def _q_weighted_sample(sf_dir: str):
    """Deterministic weighted top-k sample of documents by length
    (stages/export.weighted_sample): md5-PRF uniform x (n_chars + 1),
    block-local top-k candidates, tiny final sort+limit -- the corpus
    never shuffles."""
    from console_log_parser_ray.stages.export import weighted_sample

    return weighted_sample(
        _docs(sf_dir).select_columns(["doc_id", "n_chars"]), k=200
    )


def _q_cube_pricing(sf_dir: str):
    """GROUP BY CUBE(returnflag, linestatus) with a GROUPING() bitmask
    (stages/relational.cube_agg): finest-level per-block partials +
    one groupby-sum; all subset lattices fold from the finest
    aggregate."""
    import ray.data

    from console_log_parser_ray.stages.relational import cube_agg

    return cube_agg(
        ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_returnflag", "l_linestatus", "l_extendedprice"],
        ),
        keys=["l_returnflag", "l_linestatus"],
        value_col="l_extendedprice",
    )


def _q_window_reach(sf_dir: str):
    """Distinct users per tumbling hour (reach): window id derived per
    block, then the exact COUNT(DISTINCT) recipe
    (stages/events.distinct_count_per_group) -- block-local pair
    dedup, val-hash buckets, per-key partial sums."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.stages.events import (
        distinct_count_per_group,
    )

    us = 3_600_000_000

    def add_window(b: pa.Table) -> pa.Table:
        w = pc.divide(
            b.column("ts").cast(pa.int64()), pa.scalar(us, pa.int64())
        )
        return pa.table(
            {
                "window_id": w,
                "user_id": b.column("user_id"),
            }
        )

    return distinct_count_per_group(
        _events(sf_dir)
        .select_columns(["ts", "user_id"])
        .map_batches(add_window, batch_format="pyarrow"),
        key_col="window_id",
        val_col="user_id",
    )


def _q_event_quantiles_cont(sf_dir: str):
    """Interpolated per-type value quantiles (percentile_cont
    semantics, stages/events.quantile_cont_per_group): exact integer
    order statistics + one fixed IEEE interpolation, bit-identical to
    the SQL mirror's expression tree."""
    from console_log_parser_ray.stages.events import (
        quantile_cont_per_group,
    )

    return quantile_cont_per_group(
        _events(sf_dir).select_columns(["event_type", "value"]),
        group_col="event_type",
        value_col="value",
        qs=(0.5, 0.9),
    )


def _q_cohort_retention(sf_dir: str):
    """Daily cohort-retention triangle (stages/events.
    cohort_retention): block-local distinct (user, window) pairs, ONE
    user-hash bucket groupby derives cohorts in-bucket (no join
    shuffle), tiny (cohort, window) partial sums."""
    from console_log_parser_ray.stages.events import cohort_retention

    return cohort_retention(
        _events(sf_dir).select_columns(["user_id", "ts"])
    )


def _q_knn_graph(sf_dir: str):
    """Exact kNN graph over quantized integer embeddings
    (stages/similarity.knn_graph): floor(e*1000) makes every dot
    product an exact sub-2^53 integer, so the float64 matmul and the
    SQL list_dot_product mirror agree bitwise; corpus broadcast once,
    per-block vectorized stable-argsort top-k."""
    import ray.data

    from console_log_parser_ray.stages.similarity import knn_graph

    return knn_graph(
        ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
        ),
        k=5,
    )


def _q_merge_customers(sf_dir: str):
    """MERGE INTO (stages/events.merge_upsert): apply a deterministic
    CDC change batch (bump every 7th balance, delete keys < 50, insert
    clones at +1000000 -- deletes sequenced after updates) to the
    customer snapshot; result equals snapshot_diff's simulated target
    by construction, pinned by the same SQL."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from console_log_parser_ray.stages.events import merge_upsert

    cols = ["c_custkey", "c_acctbal", "c_mktsegment"]
    base = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=cols
    )

    def changes(b: pa.Table) -> pa.Table:
        k = b.column("c_custkey").cast(pa.int64())
        bal = b.column("c_acctbal")
        seg = b.column("c_mktsegment")
        parts = []
        bump = pc.equal(
            pc.subtract(
                k, pc.multiply(pc.divide(k, 7), pa.scalar(7, pa.int64()))
            ),
            0,
        )
        upd = pa.table(
            {
                "c_custkey": k,
                "c_acctbal": pc.add(bal, pa.scalar(1.0)),
                "c_mktsegment": seg,
            }
        ).filter(bump)
        parts.append((upd, "u", 1))
        dele = pa.table(
            {"c_custkey": k, "c_acctbal": bal, "c_mktsegment": seg}
        ).filter(pc.less(k, 50))
        parts.append((dele, "d", 2))
        ins = pa.table(
            {
                "c_custkey": pc.add(k, pa.scalar(1000000, pa.int64())),
                "c_acctbal": bal,
                "c_mktsegment": seg,
            }
        ).filter(pc.less(k, 25))
        parts.append((ins, "u", 1))
        out = []
        for t, op, seq in parts:
            out.append(
                t.append_column(
                    "op",
                    pa.array(np.full(t.num_rows, op, object), pa.string()),
                ).append_column(
                    "change_seq",
                    pa.array(
                        np.full(t.num_rows, seq, np.int64), pa.int64()
                    ),
                )
            )
        return pa.concat_tables(out)

    return merge_upsert(
        base,
        base.map_batches(changes, batch_format="pyarrow"),
        key_cols=["c_custkey"],
    )


def _q_bool_search(sf_dir: str):
    """Boolean-AND retrieval gate (stages/search.bool_search): docs
    whose token set contains every query term; zero shuffles, one
    tokenize + vectorized membership per block."""
    from console_log_parser_ray.stages.search import bool_search

    return bool_search(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        terms=["batch", "scan", "spark"],
    )


def _q_salted_join(sf_dir: str):
    """Skew-salted co-partitioned join (stages/relational.hash_join
    salt=4): left rows round-robin over salt sub-buckets, right rows
    replicate into all of them -- identical output to the unsalted
    join, but a hot key now splits across salt workers instead of
    OOMing one."""
    import ray.data

    from console_log_parser_ray.stages.relational import hash_join

    return hash_join(
        ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_linenumber"],
        ),
        ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_orderpriority"],
        ),
        on="l_orderkey",
        right_on="o_orderkey",
        how="inner",
        salt=4,
    )


def _q_class_centroids(sf_dir: str):
    """Per-label embedding centroids from exact integer sums
    (stages/similarity.class_centroids): quantized per-block segmented
    sums -> one tiny (label, dim) groupby -> one IEEE division per
    cell; no float-summation order dependence."""
    import ray.data

    from console_log_parser_ray.stages.similarity import class_centroids

    return class_centroids(
        ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["label", "embedding"],
        )
    )


def _q_top_paths(sf_dir: str):
    """Top-25 session paths (stages/events.top_paths): sessionize's
    gap rule, vectorized path join per bucket, (path, n) partials
    into one aggregated top-k."""
    from console_log_parser_ray.stages.events import top_paths

    return top_paths(
        _events(sf_dir).select_columns(
            ["user_id", "ts", "event_id", "event_type"]
        ),
        k=25,
    )


def _q_scd2_state(sf_dir: str):
    """SCD-type-2 validity intervals from the event change log
    (stages/events.scd2_intervals): each (user, event_type) change is
    open from its own ts to the key's next change (lead), null-open
    for the latest -- user-hash buckets, one lexsort + shifted vector
    per bucket."""
    from console_log_parser_ray.stages.events import scd2_intervals

    return scd2_intervals(
        _events(sf_dir).select_columns(
            ["user_id", "event_type", "event_id", "ts"]
        )
    )


def _q_user_time_rolling(sf_dir: str):
    """Per-user event-time RANGE frame sum (1h preceding .. current,
    peers included) of integer cents (stages/events.rolling_time_sum):
    one lexsort + two bucket-wide searchsorted calls on a composite
    per-user axis -- no per-row or per-user Python on the fast
    path."""
    from console_log_parser_ray.stages.events import rolling_time_sum

    return rolling_time_sum(
        _events(sf_dir).select_columns(
            ["event_id", "user_id", "ts", "value"]
        ),
        window_us=3_600_000_000,
    )


def _q_outer_join_users(sf_dir: str):
    """Full outer join (stages/relational.hash_join how='outer'):
    event stream vs the customer dimension restricted to keys >= 100,
    so BOTH unmatched directions appear -- events of users 0..99 keep
    null customer columns, customers above the user range surface with
    null event columns; keys coalesce into one column per SQL FULL
    JOIN USING semantics.  Same co-partitioned one-shuffle plan as the
    inner/left/semi/anti family."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from console_log_parser_ray.stages.relational import hash_join

    def trim(b):
        keep = pc.greater_equal(b.column("c_custkey"), 100)
        return b.filter(keep)

    events = _events(sf_dir).select_columns(
        ["event_id", "user_id", "event_type"]
    )
    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    ).map_batches(trim, batch_format="pyarrow")
    # explicit schemas: skip the limit-1 probe of the lazy sides
    return hash_join(
        events, cust, on="user_id", right_on="c_custkey", how="outer",
        left_schema=pa.schema(
            [("event_id", pa.int64()), ("user_id", pa.int64()),
             ("event_type", pa.string())]
        ),
        right_schema=pa.schema(
            [("c_custkey", pa.int64()), ("c_mktsegment", pa.string())]
        )
    )


def _q_unigram_lm(sf_dir: str):
    """CCNet-style unigram-LM quality score: per-doc log-probability
    under the corpus's own unigram distribution, quantized to integer
    micro-nats via libm ln (bit-identical to DuckDB's ln; numpy's
    SIMD log is not) so every sum is order-free int64
    (stages/textan.unigram_logprob)."""
    from console_log_parser_ray.stages.textan import unigram_logprob

    return unigram_logprob(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_vocab_oov(sf_dir: str):
    """Vocabulary coverage: top-1000 token vocab by occurrence count
    (per-bucket top-V candidates, driver folds <= buckets*V rows),
    then per-doc OOV occurrence counts + one IEEE-division rate
    (stages/textan.vocab_oov)."""
    from console_log_parser_ray.stages.textan import vocab_oov

    return vocab_oov(
        _docs(sf_dir).select_columns(["doc_id", "text"]), vocab_size=1000
    )


def _q_pagerank_parts(sf_dir: str):
    """Integer-quantized PageRank (3 damped iterations, pure int64 --
    bit-identical on any partitioning) over the symmetrized
    supplier<->part co-occurrence graph from lineitem
    (stages/graph.pagerank)."""
    import ray.data

    from console_log_parser_ray.stages.graph import pagerank, symmetric_edges

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_suppkey", "l_partkey"],
    )
    edges = symmetric_edges(
        li, "l_suppkey", "l_partkey", b_offset=1_000_000_000
    )
    return pagerank(edges, iterations=3)


def _q_orders_in_flight(sf_dir: str):
    """Interval concurrency (stages/events.interval_concurrency): for
    every order (active for 7 days from its date), how many orders
    are in flight at its start instant -- global order statistics via
    a time-span-bounded bucket histogram + broadcast prefix + one
    bucket-key shuffle with local searchsorted; no global sort."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        interval_concurrency,
    )

    week = 7 * 86400 * 1_000_000

    def spans(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s = b.column("o_orderdate").cast(pa.int64())
        return pa.table(
            {
                "okey": b.column("o_orderkey").cast(pa.int64()),
                "s_us": s,
                "e_us": pc.add(s, pa.scalar(week, pa.int64())),
            }
        )

    iv = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate"],
    ).map_batches(spans, batch_format="pyarrow")
    return interval_concurrency(
        iv, id_col="okey", start_col="s_us", end_col="e_us"
    )


def _q_interp_at_orders(sf_dir: str):
    """Time-series resampling join (stages/events.interp_join): each
    order's customer event value linearly interpolated at the order
    date (hold-last / backfill at the edges, prev-wins at equal
    times) -- tagged union + one user-hash bucket shuffle, two
    vectorized merge_asof passes per bucket, bit-exact lerp."""
    import ray.data

    from console_log_parser_ray.stages.events import interp_join

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    return interp_join(
        orders,
        _events(sf_dir).select_columns(
            ["user_id", "ts", "value", "event_id"]
        ),
    )


def _q_phrase_search(sf_dir: str):
    """Exact token-phrase search (stages/textan.phrase_search): per
    document, the count of overlapping positions starting the token
    sequence 'table hash' -- one vectorized gram tape + equality +
    bincount per batch, fully batch-local, no shuffle."""
    from console_log_parser_ray.stages.textan import phrase_search

    return phrase_search(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        phrase="table hash",
    )


def _q_mlm_mask(sf_dir: str):
    """Deterministic MLM corruption (stages/textan.mlm_mask): mask
    every token whose md5 PRF over (doc_id, ordinal) falls under 15%,
    emit corrupted text + ordered labels + mask count -- content-
    independent sampling, re-run-stable, stateless per batch."""
    from console_log_parser_ray.stages.textan import mlm_mask

    return mlm_mask(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        rate_pct=15,
    )


def _q_gini_priority(sf_dir: str):
    """Per-group Gini concentration (stages/events.gini_by_group):
    how unequally order spend distributes within each order priority
    -- integer cents, tie-invariant rank-weighted sums, one float
    division; group-hash buckets + one lexsort per bucket."""
    import ray.data

    from console_log_parser_ray.stages.events import gini_by_group

    return gini_by_group(
        ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderpriority", "o_totalprice"],
        ),
        group_col="o_orderpriority",
        val_col="o_totalprice",
    )


def _q_price_band_pairs(sf_dir: str):
    """Numeric band self-join (stages/relational.band_join): order
    pairs whose total prices differ by <= $5.00, integer-cents exact
    -- left side replicated to the three neighbor bands, one
    co-partitioned equality hash_join on the band, vectorized exact
    |diff| filter, id_a < id_b once per pair."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.relational import band_join

    def cents(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "okey": b.column("o_orderkey").cast(pa.int64()),
                "cents": pc.cast(
                    pc.floor(
                        pc.multiply(
                            b.column("o_totalprice").cast(pa.float64()),
                            pa.scalar(100.0, pa.float64()),
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    def orders():
        return ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_totalprice"],
        ).map_batches(cents, batch_format="pyarrow")

    return band_join(
        orders(),
        orders(),
        val_col="cents",
        id_col="okey",
        right_val_col="cents",
        right_id_col="okey",
        eps_q=500,
        antisym=True,
    )


def _q_lang_top_sources(sf_dir: str):
    """Top-k categories per group with OTHER rollup
    (stages/events.topk_with_other): each language's two biggest
    sources plus one '<OTHER>' row -- per-block pair partials, one
    pair groupby, group-hash bucket rank; output bounded by k+1 rows
    per group."""
    from console_log_parser_ray.stages.events import topk_with_other

    return topk_with_other(
        _docs(sf_dir).select_columns(["lang", "source"]),
        group_col="lang",
        cat_col="source",
        k=2,
    )


def _q_session_entry_exit(sf_dir: str):
    """Session entry/exit matrix (stages/events.session_entry_exit):
    sessions per (first event type, last event type) under the
    30-minute gap rule -- one lexsort + boundary cumsum per user-hash
    bucket, partial pair counts, one tiny groupby."""
    from console_log_parser_ray.stages.events import session_entry_exit

    return session_entry_exit(
        _events(sf_dir).select_columns(
            ["user_id", "ts", "event_id", "event_type"]
        )
    )


def _q_cusum_alerts(sf_dir: str):
    """One-sided CUSUM drift alarms (stages/events.cusum_alerts):
    per-user events whose cumulative positive deviation from a $50.00
    target exceeds $500.00 -- the sequential change detector via its
    prefix-minus-running-min closed form, integer cents exact, one
    lexsort + vectorized segmented cumsum/min per bucket."""
    from console_log_parser_ray.stages.events import cusum_alerts

    return cusum_alerts(
        _events(sf_dir).select_columns(
            ["user_id", "ts", "event_id", "value"]
        ),
        target_cents=5000,
        h_cents=50000,
    )


def _q_melt_lineitem(sf_dir: str):
    """Unpivot / melt (stages/relational.melt): lineitem's four
    numeric measures reshaped wide -> long, one row per (line,
    measure) -- stateless per-batch concat of per-column projections,
    no shuffle."""
    import ray.data

    from console_log_parser_ray.stages.relational import melt

    return melt(
        ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=[
                "l_orderkey", "l_linenumber", "l_quantity",
                "l_extendedprice", "l_discount", "l_tax",
            ],
        ),
        id_cols=["l_orderkey", "l_linenumber"],
        value_cols=[
            "l_quantity", "l_extendedprice", "l_discount", "l_tax"
        ],
    )


def _q_dq_orders(sf_dir: str):
    """Declarative data-quality gate (stages/profile.constraint_report):
    null / positivity / uniqueness / referential-integrity violation
    counts over orders -- row checks as per-block predicate sums,
    uniqueness and FK through value-hash bucket dedup (no broadcast,
    no driver collect)."""
    import ray.data

    from console_log_parser_ray.stages.profile import constraint_report

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=[
            "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"
        ],
    )
    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey"],
    )
    return constraint_report(
        orders,
        not_null=("o_orderdate",),
        positive=("o_totalprice",),
        unique=("o_orderkey",),
        fk=(("o_custkey", cust, "c_custkey"),),
    )


def _q_new_returning(sf_dir: str):
    """Daily new-vs-returning users (stages/events.new_vs_returning):
    per-block DISTINCT (user, day) pairs, one user-hash bucket
    groupby dedups AND derives first-seen days join-free, final sum
    over tiny per-day partials."""
    from console_log_parser_ray.stages.events import new_vs_returning

    return new_vs_returning(
        _events(sf_dir).select_columns(["user_id", "ts"])
    )


def _q_daily_acf(sf_dir: str):
    """Calendar-lag autocorrelation of the daily event-count series
    (stages/events.acf_daily), lags 1..7 -- exact integer moment sums
    (Python ints == SQL HUGEINT); the only driver-side collect is the
    daily series, bounded by calendar span."""
    from console_log_parser_ray.stages.events import acf_daily

    return acf_daily(_events(sf_dir).select_columns(["ts"]), max_lag=7)


def _q_benford_orders(sf_dir: str):
    """Benford first-digit screen over o_totalprice
    (stages/profile.benford_digits): leading digit of the exact
    integer cents (decimal string, never float log10), per-block
    partial counts, 9-row result with share / expectation /
    chi-square terms."""
    import ray.data

    from console_log_parser_ray.stages.profile import benford_digits

    return benford_digits(
        ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_totalprice"],
        ),
        "o_totalprice",
    )


def _q_quota_docs(sf_dir: str):
    """Largest-remainder apportionment of a 10k-doc sampling budget
    across sources (stages/export.quota_alloc): exact integer
    allocations summing to the budget, arbitrary-precision arithmetic
    (SQL mirror in HUGEINT), driver sees one row per source."""
    from console_log_parser_ray.stages.export import quota_alloc

    return quota_alloc(
        _docs(sf_dir).select_columns(["source"]), budget=10_000
    )


def _q_vocab_growth(sf_dir: str):
    """Heaps'-law vocabulary-growth curve over documents
    (stages/textan.vocab_growth): cumulative tokens and distinct
    types at 10 doc-id checkpoints -- token-hash bucket
    first-occurrence fold, buckets x checkpoints partials only."""
    from console_log_parser_ray.stages.textan import vocab_growth

    return vocab_growth(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        n_checkpoints=10,
    )


def _keep_sum_qty_over_300(b):
    import pyarrow.compute as pc

    return b.filter(pc.greater(b.column("sum_qty"), 300))


def _q_q18_big_orders(sf_dir: str):
    """TPC-H Q18-shaped composition: orders whose total line quantity
    exceeds 300 units, with their customer names -- block-local
    per-orderkey integer quantity partials, one groupby + HAVING
    filter, then two size-adaptive lookup_joins (the qualifying-order
    set is tiny, so neither orders nor customer ever shuffles)."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.stages.relational import lookup_join

    def qty_partial(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        qty = pc.cast(
            pc.round(b.column("l_quantity"), ndigits=0), pa.int64()
        )
        g = (
            pa.table({"l_orderkey": b.column("l_orderkey"), "q": qty})
            .group_by("l_orderkey")
            .aggregate([("q", "sum")])
        )
        return pa.table(
            {
                "l_orderkey": g.column("l_orderkey"),
                "q": g.column("q_sum"),
            }
        )

    big = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_quantity"],
        )
        .map_batches(qty_partial, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("q"))
        .rename_columns({"sum(q)": "sum_qty"})
        .map_batches(_keep_sum_qty_over_300, batch_format="pyarrow")
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=[
            "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"
        ],
    )
    with_orders = lookup_join(
        orders,
        big,
        on="o_orderkey",
        right_on="l_orderkey",
    )
    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"],
    )
    joined = lookup_join(
        cust,
        with_orders,
        on="c_custkey",
        right_on="o_custkey",
    )
    return joined.select_columns(
        ["c_name", "o_orderkey", "o_orderdate", "o_totalprice",
         "sum_qty"]
    )


def _q_ab_click_view(sf_dir: str):
    """Per-day Welch's t between click and view event values
    (stages/events.welch_ab): exact integer moment partials per
    block, one tiny groupby, calendar-bounded per-day finish with
    the identical float expression as the SQL mirror."""
    from console_log_parser_ray.stages.events import welch_ab

    return welch_ab(
        _events(sf_dir).select_columns(["event_type", "ts", "value"]),
        variant_a="click",
        variant_b="view",
    )


def _q_km_retention(sf_dir: str):
    """Kaplan-Meier retention over user activity spans
    (stages/events.km_retention): right-censored at the corpus's
    final day; per-user min/max bucket fold compresses to a
    calendar-bounded (duration, censored) histogram; survival product
    multiplies in ascending-duration order on both sides."""
    from console_log_parser_ray.stages.events import km_retention

    return km_retention(
        _events(sf_dir).select_columns(["user_id", "ts"])
    )


def _q_mwu_click_view(sf_dir: str):
    """Mann-Whitney U + KS D between click and view values
    (stages/events.rank_sum_test): distinct-value histogram fold
    (metadata-counted, max_distinct-guarded collect), exact
    arbitrary-precision rank/tie arithmetic, identical float finish
    as the SQL mirror."""
    from console_log_parser_ray.stages.events import rank_sum_test

    return rank_sum_test(
        _events(sf_dir).select_columns(["event_type", "value"]),
        variant_a="click",
        variant_b="view",
    )


def _q_late_events(sf_dir: str):
    """Watermark lateness audit (stages/events.late_events): running
    max event time over arrival order via range buckets + broadcast
    exclusive prefix maxes; per-day totals of events arriving more
    than an hour behind the watermark."""
    from console_log_parser_ray.stages.events import late_events

    return late_events(
        _events(sf_dir).select_columns(["event_id", "ts"])
    )


def _q_wmedian_qty(sf_dir: str):
    """Revenue-weighted median quantity per return flag
    (stages/events.weighted_median_per_group): exact integer-cent
    weights over the compressed distinct-(group, value) distribution,
    one group-hash bucket shuffle, pandas segment cumsum resolve."""
    import ray.data

    from console_log_parser_ray.stages.events import (
        weighted_median_per_group,
    )

    return weighted_median_per_group(
        ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_returnflag", "l_quantity", "l_extendedprice"],
        ),
        group_col="l_returnflag",
        value_col="l_quantity",
        weight_col="l_extendedprice",
    )


def _q_khop_parts(sf_dir: str):
    """Bounded-depth BFS (stages/graph.khop_reach): minimum hop count
    to every part within 2 hops of the seed parts (partkey % 97 == 0)
    over the 1998+ co-purchase graph -- broadcast-frontier expansion,
    one edge scan per hop, zero shuffles after the edge build."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.graph import (
        cooccur_pair_edges,
        khop_reach,
    )

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_shipdate"],
    )
    cutoff = pa.scalar(883612800000000, pa.int64())  # 1998-01-01 UTC us

    def recent(b: pa.Table) -> pa.Table:
        keep = pc.greater_equal(
            b.column("l_shipdate").cast(pa.int64()), cutoff
        )
        return b.filter(keep).select(["l_orderkey", "l_partkey"])

    recent_li = li.map_batches(recent, batch_format="pyarrow")

    def seed_partial(b: pa.Table) -> pa.Table:
        pk = b.column("l_partkey").cast(pa.int64())
        import numpy as np

        v = pk.to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": pa.array(np.unique(v[v % 97 == 0]), pa.int64())}
        )

    seeds = (
        recent_li.map_batches(seed_partial, batch_format="pyarrow")
        .to_pandas()["node"]
        .unique()
        .tolist()
    )
    edges = cooccur_pair_edges(recent_li, "l_orderkey", "l_partkey")
    return khop_reach(edges, seeds, k=2)


def _q_decay_score(sf_dir: str):
    """Recency-decayed engagement score (stages/events.decay_score):
    per user, values halve once per elapsed day before 2024-02-01 --
    integer cents x power-of-two weights, order-free exact sums,
    one final IEEE division; per-block group-by partials, one small
    groupby, no sort."""
    from console_log_parser_ray.stages.events import decay_score

    return decay_score(
        _events(sf_dir).select_columns(["user_id", "ts", "value"]),
        t_ref_us=1706745600000000,  # 2024-02-01 UTC, just past the data
    )


def _q_part_triangles(sf_dir: str):
    """Per-node triangle counts (stages/graph.triangle_counts) over
    the 1998+ part co-purchase graph (distinct part pairs sharing an
    order, stages/graph.cooccur_pair_edges): exact enumeration via
    ordered-wedge join + packed-key semi join, both through the
    co-partitioned hash_join; per-node counts from per-block
    partials."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.graph import (
        cooccur_pair_edges,
        triangle_counts,
    )

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_shipdate"],
    )
    cutoff = pa.scalar(883612800000000, pa.int64())  # 1998-01-01 UTC us

    def recent(b: pa.Table) -> pa.Table:
        keep = pc.greater_equal(
            b.column("l_shipdate").cast(pa.int64()), cutoff
        )
        return b.filter(keep).select(["l_orderkey", "l_partkey"])

    edges = cooccur_pair_edges(
        li.map_batches(recent, batch_format="pyarrow"),
        "l_orderkey",
        "l_partkey",
    )
    return triangle_counts(edges)


def _q_bigram_lm(sf_dir: str):
    """Bigram conditional-LM quality score (KenLM-shaped sibling of
    unigram_lm): per-doc sum of quantized ln(c2(w1,w2)/c1(w1)) over
    adjacent token pairs; bucketing by hash(w1) co-locates each
    bigram with its conditioning unigram so both counts are
    bucket-local (stages/textan.bigram_logprob)."""
    from console_log_parser_ray.stages.textan import bigram_logprob

    return bigram_logprob(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_token_entropy(sf_dir: str):
    """Per-document Shannon entropy of the document's own token
    distribution in integer micro-nats (the repetitiveness quality
    signal; fully batch-local, zero shuffles)
    (stages/textan.token_entropy)."""
    import ray.data

    from console_log_parser_ray.stages.textan import token_entropy

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    return token_entropy(docs)


def _q_domain_kl(sf_dir: str):
    """Per-source KL divergence of the source's unigram distribution
    from the whole corpus (integer micro-nats; token-hash bucket
    groups own both counts locally — the domain-shift diagnostic)
    (stages/textan.domain_kl)."""
    import ray.data

    from console_log_parser_ray.stages.textan import domain_kl

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "text"],
    )
    return domain_kl(docs)


def _q_pmi_topk(sf_dir: str):
    """Top-k adjacent-token collocations by quantized PMI (word2vec
    phrase detection; two post-aggregation bucket shuffles, the
    corpus never shuffles) (stages/textan.pmi_topk)."""
    import ray.data

    from console_log_parser_ray.stages.textan import pmi_topk

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    return pmi_topk(docs, k=25, min_count=5)


def _q_split_assign(sf_dir: str):
    """Deterministic md5-PRF train/val/test split assignment
    (stateless, re-run/engine-stable — eval sets stay uncontaminated
    when the corpus regrows) (stages/export.split_assign)."""
    import ray.data

    from console_log_parser_ray.stages.export import split_assign

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    return split_assign(docs)


def _q_vocab_overlap(sf_dir: str):
    """Pairwise vocabulary Jaccard between sources (token-hash
    buckets own class memberships; additive boolean-matrix partials)
    (stages/textan.vocab_overlap)."""
    import ray.data

    from console_log_parser_ray.stages.textan import vocab_overlap

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "text"],
    )
    return vocab_overlap(docs)


def _q_user_entropy(sf_dir: str):
    """Per-user Shannon entropy of the event-type distribution
    (behavioral diversity; integer micro-nats, uniform window-family
    bucket recipe) (stages/events.group_entropy)."""
    import ray.data

    from console_log_parser_ray.stages.events import group_entropy

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type"],
    )
    return group_entropy(ev)


def _q_hybrid_rrf(sf_dir: str):
    """Hybrid sparse+dense retrieval: BM25 keyword leg fused with an
    embedding-cosine leg by reciprocal rank (1/(60+r) per leg); both
    legs distributed, only the two top-m rankings reach the driver
    (stages/search.hybrid_rrf)."""
    import pyarrow.parquet as pq

    from console_log_parser_ray.stages.search import hybrid_rrf

    qvec = (
        pq.read_table(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
        )
        .sort_by("vec_id")
        .column("embedding")[0]
        .as_py()
    )
    return hybrid_rrf(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        _embeddings(sf_dir, ["vec_id", "embedding"]),
        _BM25_TERMS,
        (0, qvec),
        m=100,
        k=20,
    )


def _q_rbo_sparse_dense(sf_dir: str):
    """Rank-biased overlap (p=0.9, depth 20) between the BM25
    keyword ranking and the dense-cosine ranking for query vector 0
    (stages/search.rbo_rankings over the two legs hybrid_rrf
    already pins): integer-quantized depth weights, one float
    finish -- the retrieval-evaluation readout for how much the
    sparse and dense systems agree where it matters."""
    import pyarrow.parquet as pq

    from console_log_parser_ray.stages.search import (
        bm25_keyword,
        rbo_rankings,
    )
    from console_log_parser_ray.stages.similarity import (
        knn_bruteforce,
    )

    bm = (
        bm25_keyword(
            _docs(sf_dir).select_columns(["doc_id", "text"]),
            _BM25_TERMS,
        )
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(20)
        .take_all()
    )
    list_a = [int(r["doc_id"]) for r in bm]
    qvec = (
        pq.read_table(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
        )
        .sort_by("vec_id")
        .column("embedding")[0]
        .as_py()
    )
    import numpy as np

    kn = knn_bruteforce(
        _embeddings(sf_dir, ["vec_id", "embedding"]),
        (np.array([0], np.int64), np.array([qvec], np.float32)),
        k=20,
    ).take_all()
    kn.sort(key=lambda r: (-r["cosine"], int(r["vec_id"])))
    list_b = [int(r["vec_id"]) for r in kn]
    return rbo_rankings(list_a, list_b)


def _q_vocab_coverage(sf_dir: str):
    """Vocabulary-sizing curve: share of corpus token occurrences
    covered by the top-{100, 1000, 10000} tokens
    (stages/textan.vocab_coverage_curve): per-bucket top-k
    candidates, exact integer cumsums, one float division per
    cut."""
    from console_log_parser_ray.stages.textan import (
        vocab_coverage_curve,
    )

    return vocab_coverage_curve(
        _docs(sf_dir, ["doc_id", "text"])
    )


def _q_hill_order_values(sf_dir: str):
    """Hill heavy-tail index over the top-500 order values in cents,
    the 501st as the threshold (stages/events.hill_tail_index):
    per-block top-(k+1) prune,
    micro-nat quantized lns, one float division."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.events import hill_tail_index

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c": pc.cast(
                    pc.floor(
                        pc.multiply(
                            b.column("o_totalprice").cast(pa.float64()),
                            pa.scalar(100.0, pa.float64()),
                        )
                    ),
                    pa.int64(),
                )
            }
        )

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_totalprice"],
    ).map_batches(proj, batch_format="pyarrow")
    return hill_tail_index(orders)


def _q_kmv_users(sf_dir: str):
    """KMV (bottom-k) distinct-count sketch over event user_ids:
    the k smallest md5-prefix hashes plus the running estimate
    curve, bit-reproducible vs the SQL mirror
    (stages/sketch.kmv_distinct)."""
    import ray.data

    from console_log_parser_ray.stages.sketch import kmv_distinct

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
    )
    return kmv_distinct(ev, "user_id", k=256)


def _q_skyline_orders(sf_dir: str):
    """2-D Pareto frontier over orders -- highest-price, earliest-date
    trade-offs (stages/relational.skyline_2d): block-local frontier
    prune (sound: in-block dominance implies global dominance) +
    guarded single-task merge of the bounded candidate set."""
    import ray.data

    from console_log_parser_ray.stages.relational import skyline_2d

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_totalprice", "o_orderdate"],
    )
    return skyline_2d(orders, "o_totalprice", "o_orderdate")


def _q_user_streaks(sf_dir: str):
    """Gaps-and-islands per user: distinct active days split into
    maximal consecutive-day runs; active-day count, run count, and
    longest run (stages/events.activity_streaks) -- block-local
    (user, day) dedup, one key-hash bucket shuffle, reduceat folds."""
    import ray.data

    from console_log_parser_ray.stages.events import activity_streaks

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts"],
    )
    return activity_streaks(ev)


def _q_corr_matrix(sf_dir: str):
    """Pearson correlation matrix over the lineitem numerics from
    exact fixed-point moments (stages/relational.corr_matrix): one
    stateless streaming pass, zero shuffles, arbitrary-precision
    driver fold of one partial row per block, IEEE finish mirrored
    literally in the SQL oracle."""
    import ray.data

    from console_log_parser_ray.stages.relational import corr_matrix

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
        ],
    )
    return corr_matrix(
        li,
        ["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
        [1, 1, 100, 100],
    )


def _q_setsim_pairs(sf_dir: str):
    """Exact threshold set-similarity self-join (prefix filtering)
    over the planted corpus: every pair with 3-token-shingle Jaccard
    >= 0.85 plus exact intersection/union sizes
    (stages/dedup.setsim_join) -- the deterministic, full-recall
    complement of dedup_minhash's LSH on the same ground truth."""
    from console_log_parser_ray.stages.dedup import setsim_join

    return setsim_join(_minhash_aug(sf_dir), 0.85)


def _q_nearest_click(sf_dir: str):
    """Bidirectional nearest-in-time join: each purchase matched to
    the same user's closest click either way
    (stages/events.nearest_event_join) -- one user-hash bucket
    shuffle, searchsorted neighbor resolution, deterministic
    (gap, ts, id) tie rule mirrored in the SQL row_number."""
    from console_log_parser_ray.stages.events import nearest_event_join

    return nearest_event_join(
        _events(sf_dir).select_columns(
            ["event_id", "user_id", "event_type", "ts"]
        ),
        anchor_type="purchase",
        near_type="click",
    )


def _q_mutual_info(sf_dir: str):
    """PMI between document language and source in integer micro-nats
    (stages/textan.mutual_info): per-block cell partials bounded by
    the categorical cross product, driver fold, zero shuffles."""
    import ray.data

    from console_log_parser_ray.stages.textan import mutual_info

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["lang", "source"],
    )
    return mutual_info(docs)


def _q_twap(sf_dir: str):
    """Per-user time-weighted average of the event value stream
    (integer cents x ms weights, one IEEE division; uniform
    window-family bucket recipe) (stages/events.time_weighted_avg)."""
    import ray.data

    from console_log_parser_ray.stages.events import time_weighted_avg

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "value"],
    )
    return time_weighted_avg(ev)


_DEDUP_PRIORITY = ("src3", "src1", "src0")


def _q_dedup_priority(sf_dir: str):
    """Cross-source exact dedup keeping the highest-priority source's
    copy per identical text (rank = index in the priority list,
    unlisted sources last, ties by min id)
    (stages/dedup.exact_dedup_priority)."""
    from console_log_parser_ray.stages.dedup import exact_dedup_priority

    # output keeps every document column, so no read pruning here
    return exact_dedup_priority(_docs(sf_dir), _DEDUP_PRIORITY)


def _q_chisq_click_weekend(sf_dir: str):
    """2x2 chi-square independence: is being a click (vs view)
    independent of landing on a weekend?
    (stages/events.chi2_contingency_2x2): per-block integer cell
    partials, zero shuffle, single-float-expression statistics."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.stages.events import (
        chi2_contingency_2x2,
    )

    def proj(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_in(
                    b.column("event_type"),
                    value_set=pa.array(["click", "view"]),
                ),
                pc.is_valid(b.column("ts")),
            )
        )
        day = pc.divide(
            t.column("ts").cast(pa.int64()),
            pa.scalar(86_400_000_000, pa.int64()),
        )
        d4 = pc.add(day, pa.scalar(4, pa.int64()))
        seven = pa.scalar(7, pa.int64())
        # (day + 4) % 7 -- pyarrow has no mod kernel; epoch days are
        # positive so truncating divide matches SQL %
        dow = pc.subtract(d4, pc.multiply(pc.divide(d4, seven), seven))
        return pa.table(
            {
                "a": pc.equal(t.column("event_type"), pa.scalar("click")),
                "b": pc.is_in(dow, value_set=pa.array([0, 6], pa.int64())),
            }
        )

    flags = (
        _events(sf_dir)
        .select_columns(["event_type", "ts"])
        .map_batches(proj, batch_format="pyarrow")
    )
    return chi2_contingency_2x2(flags)


def _q_spearman_qty_price(sf_dir: str):
    """Exact tie-aware Spearman rank correlation between quantity and
    price cents (stages/events.spearman_corr): joint distinct-value
    histogram fold under the rank-family guard, doubled-rank HUGEINT
    moment arithmetic, identical float finish as the SQL mirror."""
    import os as _os

    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.events import spearman_corr

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "x": b.column("l_quantity").cast(pa.int64()),
                "y": pc.cast(
                    pc.floor(
                        pc.multiply(
                            b.column("l_extendedprice").cast(
                                pa.float64()
                            ),
                            pa.scalar(100.0, pa.float64()),
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    li = ray.data.read_parquet(
        _os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_quantity", "l_extendedprice"],
    ).map_batches(proj, batch_format="pyarrow")
    return spearman_corr(li)


def _q_kendall_qty_disc(sf_dir: str):
    """Exact tie-aware Kendall tau-b between line quantity and
    discount mills (stages/events.kendall_tau_b): the bucket-folded
    joint-value histogram shared with spearman, 2-D prefix-sum
    concordance counts in arbitrary-precision ints, one float
    finish."""
    import os as _os

    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.events import kendall_tau_b

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "x": b.column("l_quantity").cast(pa.int64()),
                "y": pc.cast(
                    pc.floor(
                        pc.multiply(
                            b.column("l_discount").cast(pa.float64()),
                            pa.scalar(1000.0, pa.float64()),
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    li = ray.data.read_parquet(
        _os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_quantity", "l_discount"],
    ).map_batches(proj, batch_format="pyarrow")
    return kendall_tau_b(li)


def _dow_int64(ts_col):
    """(epoch_day + 4) % 7 as int64 -- Sunday=0 epoch weekday (epoch
    day 3, 1970-01-04, is a Sunday) by pure integer arithmetic
    (pyarrow has no mod kernel; epoch days are positive so truncating
    divide matches SQL %)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    day = pc.divide(
        ts_col.cast(pa.int64()),
        pa.scalar(86_400_000_000, pa.int64()),
    )
    d4 = pc.add(day, pa.scalar(4, pa.int64()))
    seven = pa.scalar(7, pa.int64())
    return pc.subtract(d4, pc.multiply(pc.divide(d4, seven), seven))


def _q_cramers_action_dow(sf_dir: str):
    """r x c chi-square + Cramer's V: is the event action profile
    independent of the weekday? (stages/events.cramers_v): per-block
    cell partials bounded by |actions| x 7, micro-unit quantized
    per-cell terms, order-free integer sum, single-float V."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.stages.events import cramers_v

    def proj(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b.column("ts")))
        return pa.table(
            {
                "a": t.column("event_type"),
                "b": _dow_int64(t.column("ts")),
            }
        )

    flags = (
        _events(sf_dir)
        .select_columns(["event_type", "ts"])
        .map_batches(proj, batch_format="pyarrow")
    )
    return cramers_v(flags)


def _q_theil_u_priority_dow(sf_dir: str):
    """Theil's uncertainty coefficient U(priority | weekday) -- how
    much the order weekday predicts the order priority
    (stages/events.theil_u): shared cell fold, integer micro-nat
    entropy quantization (math.log == DuckDB ln), one float
    division."""
    import os as _os

    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.events import theil_u

    def proj(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b.column("o_orderdate")))
        return pa.table(
            {
                "a": t.column("o_orderpriority"),
                "b": _dow_int64(t.column("o_orderdate")),
            }
        )

    orders = ray.data.read_parquet(
        _os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderpriority", "o_orderdate"],
    ).map_batches(proj, batch_format="pyarrow")
    return theil_u(orders)


def _order_cents(sf_dir: str):
    """(o_orderdate, floor(o_totalprice*100)) projection shared by the
    smoothing family -- exact integer cents per order, identical
    row-level float->floor as the SQL mirrors."""
    import os as _os

    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "ts": b.column("o_orderdate"),
                "cents": pc.cast(
                    pc.floor(
                        pc.multiply(
                            b.column("o_totalprice").cast(pa.float64()),
                            pa.scalar(100.0, pa.float64()),
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    return ray.data.read_parquet(
        _os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderdate", "o_totalprice"],
    ).map_batches(proj, batch_format="pyarrow")


def _q_ewma_daily_sales(sf_dir: str):
    """EWMA-smoothed daily order revenue, alpha = 1/4
    (stages/events.ewma_series): exact integer daily cents via one
    calendar-bounded groupby, then the bit-exact sequential
    recursion mirrored by the oracle's recursive CTE."""
    from console_log_parser_ray.stages.events import ewma_series

    return ewma_series(_order_cents(sf_dir), alpha=0.25)


def _q_holt_weekly_sales(sf_dir: str):
    """Holt linear trend smoothing of weekly order revenue with
    one-step-ahead forecasts and residuals, alpha = 1/2, beta = 1/4
    (stages/events.holt_linear): same exact-cents bucket fold, the
    two-accumulator recursion mirrored by a recursive CTE."""
    from console_log_parser_ray.stages.events import holt_linear

    return holt_linear(_order_cents(sf_dir), alpha=0.5, beta=0.25)


def _q_gumbel_weekly_max(sf_dir: str):
    """Gumbel method-of-moments fit to the weekly maximum order value
    (stages/events.gumbel_block_maxima): exact integer block-max
    fold, single-float-expression moments -- the capacity-planning
    extreme-value readout."""
    from console_log_parser_ray.stages.events import (
        gumbel_block_maxima,
    )

    return gumbel_block_maxima(_order_cents(sf_dir))


def _q_xcorr_orders_events(sf_dir: str):
    """Lagged cross-correlation (lag -7..+7 days) between daily order
    revenue cents and daily event counts
    (stages/events.daily_xcorr): two calendar-bounded integer series
    folds, exact HUGEINT-mirrored moments, one float expression per
    lag."""
    from console_log_parser_ray.stages.events import daily_xcorr

    ev = _events(sf_dir).select_columns(["ts", "event_id"])
    return daily_xcorr(
        _order_cents(sf_dir),
        ev,
        val_b="event_id",
        agg_b="count",
    )


def _q_theil_sen_daily(sf_dir: str):
    """Theil-Sen robust trend of daily order revenue
    (stages/events.theil_sen): bounded daily series, median of
    pairwise slopes with DuckDB's even-count (a+b)/2 rule, median-
    residual intercept."""
    from console_log_parser_ray.stages.events import theil_sen

    return theil_sen(_order_cents(sf_dir))


def _q_mk_trend_daily(sf_dir: str):
    """Mann-Kendall monotonic-trend readout on daily order revenue:
    Kendall tau-b of (day, daily cents)
    (stages/events.kendall_tau_b over the bounded daily series --
    time carries no ties, so conc - disc is the Mann-Kendall S)."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        _bucket_int_series,
        kendall_tau_b,
    )

    buckets, xs = _bucket_int_series(
        _order_cents(sf_dir),
        "ts",
        "cents",
        86_400_000_000,
        2_000_000,
        "mk_trend_daily",
    )
    series = ray.data.from_arrow(
        pa.table(
            {
                "x": pa.array(buckets, pa.int64()),
                "y": pa.array(xs, pa.int64()),
            }
        )
    )
    # the joint grid is (#days)^2 -- calendar-bounded at any sf (a
    # decade of days is ~13M cells, ~100 MB of int64 prefix grid)
    return kendall_tau_b(series, max_grid=20_000_000)


def _q_ppl_buckets_docs(sf_dir: str):
    """CCNet-style perplexity stratification: head/middle/tail
    terciles of milli-nats-per-token under the corpus's own unigram
    LM, per source (stages/textan.ppl_tercile_buckets): one LM pass,
    one bounded (source, score) histogram groupby, driver tercile
    fold -- the quality split applied before sampling training
    data."""
    from console_log_parser_ray.stages.textan import (
        ppl_tercile_buckets,
    )

    return ppl_tercile_buckets(
        _docs(sf_dir, ["doc_id", "text", "source"])
    )


def _q_rake_keyphrases(sf_dir: str):
    """RAKE keyphrase extraction over the documents corpus
    (stages/textan.rake_keyphrases): stopword-barrier phrase
    candidates, deg/freq word scores on the token-hash bucket
    co-partition, all-integer quantized scoring, global top-20."""
    from console_log_parser_ray.stages.textan import rake_keyphrases

    return rake_keyphrases(_docs(sf_dir, ["text"]))


def _q_anova_value_type(sf_dir: str):
    """One-way ANOVA F + eta^2 of event value cents across event
    types (stages/events.anova_oneway): exact integer moment
    partials, micro-unit quantized sums of squares, single-float
    finish."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.stages.events import anova_oneway

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "grp": b.column("event_type"),
                "cents": pc.cast(
                    pc.floor(
                        pc.multiply(
                            b.column("value").cast(pa.float64()),
                            pa.scalar(100.0, pa.float64()),
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    ev = (
        _events(sf_dir)
        .select_columns(["event_type", "value"])
        .map_batches(proj, batch_format="pyarrow")
    )
    return anova_oneway(ev, group_col="grp")


_SEQ_PATTERNS = ("vc", "v[^p]*p", "ee+")


def _q_event_regex_funnels(sf_dir: str):
    """Regex sequence-pattern funnels over per-user event-initial
    strings (stages/events.event_seq_regex): adjacent view->click,
    view-leading-to-purchase, and error bursts -- MATCH_RECOGNIZE-
    lite with exact integer match counts."""
    from console_log_parser_ray.stages.events import event_seq_regex

    return event_seq_regex(
        _events(sf_dir).select_columns(
            ["user_id", "event_type", "ts", "event_id"]
        ),
        _SEQ_PATTERNS,
    )


def _q_supplier_busy_days(sf_dir: str):
    """Interval-union coverage per supplier: total days with at
    least one open shipment (order date -> ship date), merged
    sweep-line spans (stages/events.interval_union_days over the
    co-partitioned lineitem x orders join)."""
    import os as _os

    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.events import (
        interval_union_days,
    )
    from console_log_parser_ray.stages.relational import hash_join

    li = ray.data.read_parquet(
        _os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )
    orders = ray.data.read_parquet(
        _os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate"],
    )
    joined = hash_join(
        li,
        orders,
        on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("l_shipdate", pa.timestamp("us")),
            ]
        ),
        right_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("o_orderdate", pa.timestamp("us")),
            ]
        ),
    )

    def proj(b: pa.Table) -> pa.Table:
        day = pa.scalar(86_400_000_000, pa.int64())
        return pa.table(
            {
                "suppkey": b.column("l_suppkey").cast(pa.int64()),
                "a": pc.divide(
                    b.column("o_orderdate").cast(pa.int64()), day
                ),
                "b": pc.divide(
                    b.column("l_shipdate").cast(pa.int64()), day
                ),
            }
        )

    iv = joined.map_batches(proj, batch_format="pyarrow")
    return interval_union_days(
        iv, key_col="suppkey", start_col="a", end_col="b"
    )


def _q_shard_skew_profile(sf_dir: str):
    """Partition-skew audit of the transcript shard files: per input
    parquet file its row count, share of the corpus, and skew ratio
    vs the mean shard -- the partition-health readout a 100 TB run
    checks before blaming the engine for stragglers.  One
    include_paths read of a single tiny column, per-block partial
    counts, bounded per-file fold; floats are single expressions of
    exact ints."""
    import os as _os

    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from ray.data.aggregate import Sum

    from console_log_parser_ray.sources import cache as _c

    src = _c.ensure_transcripts(sf_dir)

    def part(b: pa.Table) -> pa.Table:
        base = pc.replace_substring_regex(
            b.column("path").cast(pa.string()), "^.*/", ""
        )
        g = (
            pa.table({"file": base})
            .group_by(["file"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "file": g.column("file"),
                "n_p": g.column("count_all").cast(pa.int64()),
            }
        )

    per_file = (
        ray.data.read_parquet(
            src, columns=["turn_idx"], include_paths=True
        )
        .map_batches(part, batch_format="pyarrow")
        .groupby("file")
        .aggregate(Sum("n_p"))
        .take_all()
    )  # bounded by shard-file count
    per_file.sort(key=lambda r: r["file"])
    total = sum(int(r["sum(n_p)"]) for r in per_file)
    k = len(per_file)
    files = [r["file"] for r in per_file]
    ns = [int(r["sum(n_p)"]) for r in per_file]
    return pa.table(
        {
            "file": pa.array(files, pa.string()),
            "n_rows": pa.array(ns, pa.int64()),
            "share": pa.array(
                [float(n) / float(total) for n in ns], pa.float64()
            ),
            "skew": pa.array(
                [float(n * k) / float(total) for n in ns],
                pa.float64(),
            ),
        }
    )


def _q_seasonal_strength_dow(sf_dir: str):
    """Weekly seasonality strength of daily order revenue
    (stages/events.seasonal_strength): per-weekday means, quantized
    residual variance ratio, single-float strength."""
    from console_log_parser_ray.stages.events import seasonal_strength

    return seasonal_strength(_order_cents(sf_dir))


def _q_mus_orders(sf_dir: str):
    """Monetary-unit (PPS systematic) audit sample of orders
    (stages/events.monetary_unit_sample): distributed key-ordered
    prefix sum over exact cents, every order straddling a multiple
    of total/500 selected, big orders with certainty."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.events import (
        monetary_unit_sample,
    )

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": b.column("o_orderkey"),
                "c": pc.cast(
                    pc.floor(
                        pc.multiply(
                            b.column("o_totalprice").cast(
                                pa.float64()
                            ),
                            pa.scalar(100.0, pa.float64()),
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_totalprice"],
    ).map_batches(proj, batch_format="pyarrow")
    return monetary_unit_sample(orders)


def _q_dbscan_embeddings(sf_dir: str):
    """Deterministic DBSCAN over the embeddings corpus (cosine
    eps 0.9, min_pts 3): core/border/noise roles and min-core-id
    cluster labels (stages/similarity.dbscan_embeddings composing
    the IVF near-dup graph with a size-adaptive union-find +
    broadcast label map)."""
    from console_log_parser_ray.stages.similarity import (
        dbscan_embeddings,
    )

    return dbscan_embeddings(_embeddings(sf_dir))


def _q_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining: top-3 cosine-nearest
    DIFFERENT-label vectors per anchor (the 5 smallest vec_ids)
    (stages/similarity.hard_negatives): broadcast anchor triple,
    masked matmul partials, one small per-anchor reduce."""
    from console_log_parser_ray.stages.similarity import (
        hard_negatives,
    )

    return hard_negatives(_embeddings(sf_dir)).select_columns(
        ["anchor", "neg"]
    )


def _q_rolling_p95_days(sf_dir: str):
    """Trailing-28-calendar-day P95 breach days for daily order
    revenue (stages/events.rolling_quantile_breaches): exact daily
    cents, windowed percentile_disc threshold, int-vs-int breach
    test."""
    from console_log_parser_ray.stages.events import (
        rolling_quantile_breaches,
    )

    return rolling_quantile_breaches(_order_cents(sf_dir))


def _q_prf_expansion(sf_dir: str):
    """Pseudo-relevance-feedback query expansion over the BM25
    top-10 (stages/search.prf_expansion): deterministic top-R cut on
    bit-reproducible scores, exact expansion-term counts with the
    query terms excluded."""
    from console_log_parser_ray.stages.search import prf_expansion

    return prf_expansion(
        _docs(sf_dir).select_columns(["doc_id", "text"]), _BM25_TERMS
    )


def _q_best_snippet(sf_dir: str):
    """Best-snippet (KWIC) extraction for the BM25 top-3: the
    10-token window with the most query-term hits, earliest start on
    ties (stages/search.best_snippet): cumulative-sum sliding scan
    over the hit mask."""
    from console_log_parser_ray.stages.search import best_snippet

    return best_snippet(
        _docs(sf_dir).select_columns(["doc_id", "text"]), _BM25_TERMS
    )


def _q_kcenter_coreset(sf_dir: str):
    """Greedy k-center coreset (farthest-point traversal, k=8) over
    the embeddings (stages/similarity.kcenter_select): per-step
    broadcast selected matrix, one per-block argmin pass per step,
    integer-exact selection order."""
    from console_log_parser_ray.stages.similarity import (
        kcenter_select,
    )

    return kcenter_select(_embeddings(sf_dir, ["vec_id", "embedding"]))


def _q_class_balance_weights(sf_dir: str):
    """Class-balanced sampling weights per language (effective
    number of samples, Cui et al. 2019): ens = (1 - beta^n) /
    (1 - beta) and weight = 1/ens, single libm-pow float
    expressions of the exact per-class counts."""
    import pyarrow as pa

    from ray.data.aggregate import Count

    beta = 0.999
    counts = (
        _docs(sf_dir, ["lang"])
        .groupby("lang")
        .aggregate(Count())
        .take_all()
    )
    counts.sort(key=lambda r: r["lang"] or "")
    langs = [r["lang"] for r in counts]
    ns = [int(r["count()"]) for r in counts]
    ens = [
        (1.0 - beta ** float(n)) / (1.0 - beta) for n in ns
    ]
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "n_docs": pa.array(ns, pa.int64()),
            "ens": pa.array(ens, pa.float64()),
            "weight": pa.array(
                [1.0 / e for e in ens], pa.float64()
            ),
        }
    )


def _q_na_hazard(sf_dir: str):
    """Nelson-Aalen cumulative hazard over right-censored user
    activity spans (stages/events.nelson_aalen_hazard): shared
    survival fold with km_retention, ascending running d/n and
    d/n^2 sums."""
    from console_log_parser_ray.stages.events import (
        nelson_aalen_hazard,
    )

    return nelson_aalen_hazard(
        _events(sf_dir).select_columns(["user_id", "ts"])
    )


def _q_mahalanobis_lineitems(sf_dir: str):
    """Top-20 bivariate Mahalanobis outliers over (quantity, price
    dollars) per line item (stages/events.mahalanobis_outliers):
    exact integer moments, one identical per-row float distance
    expression, global top-k."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.events import (
        mahalanobis_outliers,
    )

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_linenumber": b.column("l_linenumber").cast(
                    pa.int64()
                ),
                "x": b.column("l_quantity").cast(pa.int64()),
                "y": pc.cast(
                    pc.floor(
                        b.column("l_extendedprice").cast(pa.float64())
                    ),
                    pa.int64(),
                ),
            }
        )

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_orderkey",
            "l_linenumber",
            "l_quantity",
            "l_extendedprice",
        ],
    ).map_batches(proj, batch_format="pyarrow")
    return mahalanobis_outliers(
        li, id_cols=("l_orderkey", "l_linenumber")
    )


def _q_cooks_lineitems(sf_dir: str):
    """Top-20 Cook's-distance influence points of the price-dollars
    ~ quantity OLS (stages/events.cooks_outliers): exact integer
    moments, one identical per-row float expression for residual x
    leverage, deterministic top-k."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.events import cooks_outliers

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_linenumber": b.column("l_linenumber").cast(
                    pa.int64()
                ),
                "x": b.column("l_quantity").cast(pa.int64()),
                "y": pc.cast(
                    pc.floor(
                        b.column("l_extendedprice").cast(pa.float64())
                    ),
                    pa.int64(),
                ),
            }
        )

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_orderkey",
            "l_linenumber",
            "l_quantity",
            "l_extendedprice",
        ],
    ).map_batches(proj, batch_format="pyarrow")
    return cooks_outliers(
        li, id_cols=("l_orderkey", "l_linenumber")
    )


def _q_partial_corr_qpd(sf_dir: str):
    """Partial correlation of quantity and price dollars given
    discount mills (stages/events.partial_corr): one exact-moment
    pass, single-float correlation expressions."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.events import partial_corr

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "x": b.column("l_quantity").cast(pa.int64()),
                "y": pc.cast(
                    pc.floor(
                        b.column("l_extendedprice").cast(pa.float64())
                    ),
                    pa.int64(),
                ),
                "z": pc.cast(
                    pc.floor(
                        pc.multiply(
                            b.column("l_discount").cast(pa.float64()),
                            pa.scalar(1000.0, pa.float64()),
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(proj, batch_format="pyarrow")
    return partial_corr(li)


def _q_sprt_click_view(sf_dir: str):
    """Wald SPRT replay over click/view exposures in (ts, id) order
    (stages/events.sprt_stream): micro-nat-quantized integer LLR
    walk, first +/- ln(19) bound crossing, distributed via ts-range
    prefix buckets."""
    from console_log_parser_ray.stages.events import sprt_stream

    return sprt_stream(
        _events(sf_dir).select_columns(
            ["event_type", "ts", "event_id"]
        )
    )


_SEQ3_INITIALS = ("c", "e", "p", "s", "v")
_SEQ3_PATTERNS = tuple(
    f"{a}.*{b}.*{c}"
    for a in _SEQ3_INITIALS
    for b in _SEQ3_INITIALS
    for c in _SEQ3_INITIALS
)


def _q_seq_patterns_3(sf_dir: str):
    """Sequential-pattern support mining: of all 125 ordered
    3-type subsequence patterns (a then b then c, gaps allowed --
    'a.*b.*c' over per-user event-initial strings), the top 10 by
    user support (stages/events.event_seq_regex with generated
    patterns; ties by pattern)."""
    from console_log_parser_ray.stages.events import event_seq_regex

    res = event_seq_regex(
        _events(sf_dir).select_columns(
            ["user_id", "event_type", "ts", "event_id"]
        ),
        _SEQ3_PATTERNS,
    )
    return res.sort(
        ["n_users", "pattern"], descending=[True, False]
    ).limit(10)


def _q_wasserstein_click_view(sf_dir: str):
    """Exact 1-D earth mover's distance between click and view value
    cents (stages/events.wasserstein_1d): distinct-value histogram
    fold, arbitrary-precision CDF-area numerator, one float
    division."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.stages.events import wasserstein_1d

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": b.column("event_type"),
                "v": pc.cast(
                    pc.floor(
                        pc.multiply(
                            b.column("value").cast(pa.float64()),
                            pa.scalar(100.0, pa.float64()),
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    ev = (
        _events(sf_dir)
        .select_columns(["event_type", "value"])
        .map_batches(proj, batch_format="pyarrow")
    )
    return wasserstein_1d(ev)


def _q_vda_click_view(sf_dir: str):
    """Vargha-Delaney A + rank-biserial r between click and view
    value cents (stages/events.vda_effect): exact doubled pair
    counts over the distinct-value histogram, one float division."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.stages.events import vda_effect

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": b.column("event_type"),
                "v": pc.cast(
                    pc.floor(
                        pc.multiply(
                            b.column("value").cast(pa.float64()),
                            pa.scalar(100.0, pa.float64()),
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    ev = (
        _events(sf_dir)
        .select_columns(["event_type", "value"])
        .map_batches(proj, batch_format="pyarrow")
    )
    return vda_effect(ev)


def _q_compress_ratio(sf_dir: str):
    """Deflate compressibility per source
    (stages/textan.compress_ratio_by_source): exact byte counts,
    C-level zlib kernel per doc, one tiny groupby.  Rows-only by
    design -- no SQL engine exposes deflate; pinned by the pytest
    differential against direct zlib instead."""
    from console_log_parser_ray.stages.textan import (
        compress_ratio_by_source,
    )

    return compress_ratio_by_source(
        _docs(sf_dir, ["source", "text"])
    )


def _q_cmd_retry_rate(sf_dir: str):
    """Per-conversation command-retry audit: how many commands repeat
    the immediately preceding command verbatim (the retry/flail
    signal session-quality dashboards track).  Shuffle-free per-file
    partials over the conv-complete enriched cache -- one lexsort +
    adjacent-equality diff per file; output is one row per
    conversation that ran any command."""
    def per_group(tbl):
        import numpy as np
        import pandas as pd
        import pyarrow as pa

        df = tbl.select(
            ["conv_id", "turn_idx", "command"]
        ).to_pandas()
        df = df[df["command"].notna() & (df["command"] != "")]
        df = df.sort_values(["conv_id", "turn_idx"])
        conv = df["conv_id"].to_numpy()
        cmd = df["command"].to_numpy()
        n = len(df)
        retry = np.zeros(n, bool)
        if n:
            retry[1:] = (conv[1:] == conv[:-1]) & (
                cmd[1:] == cmd[:-1]
            )
        g = pd.DataFrame(
            {"conv_id": conv, "retry": retry.astype("int64")}
        ).groupby("conv_id", sort=False)
        agg = g.agg(
            n_cmds=("retry", "size"), n_retries=("retry", "sum")
        ).reset_index()
        return pa.table(
            {
                "conv_id": pa.array(
                    agg["conv_id"].tolist(), pa.string()
                ),
                "n_cmds": pa.array(
                    agg["n_cmds"].to_numpy(dtype="int64"), pa.int64()
                ),
                "n_retries": pa.array(
                    agg["n_retries"].to_numpy(dtype="int64"),
                    pa.int64(),
                ),
            }
        )

    return _enriched_conv_partials(
        sf_dir, ["conv_id", "turn_idx", "command"], per_group
    )


def _q_slo_burn(sf_dir: str):
    """Two-window SLO burn-rate alerting over hourly error rates
    (stages/events.slo_burn_alerts): one hour groupby of per-block
    partials, span-bounded hourly table, integer cross-multiplied
    thresholds, calendar RANGE windows via searchsorted prefix
    diffs."""
    from console_log_parser_ray.stages.events import slo_burn_alerts

    return slo_burn_alerts(
        _events(sf_dir).select_columns(["event_type", "ts"])
    )


def _q_dow_profile(sf_dir: str):
    """Day-of-week seasonality profile per event type
    (stages/events.dow_seasonality): (key, day) count partials +
    distinct-day calendar, exact-integer rates with a single float
    finish."""
    from console_log_parser_ray.stages.events import dow_seasonality

    return dow_seasonality(
        _events(sf_dir).select_columns(["event_type", "ts"])
    )


def _q_flesch_docs(sf_dir: str):
    """Per-document Flesch reading ease from three RE2 counts
    (stages/textan.readability_scores): stateless vectorized
    map_batches, single-float-expression score, bit-identical to the
    regexp_extract_all SQL mirror."""
    from console_log_parser_ray.stages.textan import readability_scores

    return readability_scores(
        _docs(sf_dir).select_columns(["doc_id", "text"])
    )


def _q_split_leakage(sf_dir: str):
    """Split-leakage audit per source under split_assign's md5 draw
    (stages/export.split_leakage): per-block partial pivot counts,
    one group-keyed shuffle, exact integer outputs."""
    import os as _os

    import ray.data

    from console_log_parser_ray.stages.export import split_leakage

    return split_leakage(
        ray.data.read_parquet(
            _os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "source"],
        )
    )



def _q_part_clustering(sf_dir: str):
    """Per-node local clustering coefficient over the 1998+ part
    co-purchase graph (stages/graph.clustering_coefficients):
    degree fold + triangle_counts meeting in one co-partitioned left
    hash_join; cc is a single float expression of exact ints."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.graph import (
        clustering_coefficients,
        cooccur_pair_edges,
    )

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_shipdate"],
    )
    cutoff = pa.scalar(883612800000000, pa.int64())  # 1998-01-01 UTC us

    def recent(b: pa.Table) -> pa.Table:
        keep = pc.greater_equal(
            b.column("l_shipdate").cast(pa.int64()), cutoff
        )
        return b.filter(keep).select(["l_orderkey", "l_partkey"])

    edges = cooccur_pair_edges(
        li.map_batches(recent, batch_format="pyarrow"),
        "l_orderkey",
        "l_partkey",
    )
    return clustering_coefficients(edges)


def _q_attribution(sf_dir: str):
    """Last-touch conversion attribution of purchases to the most
    recent click/view within 7 days
    (stages/events.last_touch_attribution): one user-hash bucket
    shuffle, in-bucket lexsort + searchsorted predecessor, integer
    partial folds."""
    from console_log_parser_ray.stages.events import (
        last_touch_attribution,
    )

    return last_touch_attribution(
        _events(sf_dir).select_columns(
            ["event_id", "user_id", "event_type", "ts", "value"]
        )
    )


def _q_psi_drift(sf_dir: str):
    """Population Stability Index drift profile of event values
    between the two halves of the corpus span
    (stages/events.psi_drift): reference-decile bins via the repo's
    percentile_disc rule, guarded histogram fold, libm-ln float
    finish."""
    from console_log_parser_ray.stages.events import psi_drift

    return psi_drift(_events(sf_dir).select_columns(["ts", "value"]))


def _q_interarrival_exp(sf_dir: str):
    """Exponential inter-arrival MLE + one-sample KS per event type
    (stages/events.interarrival_fit): range-bucketed LAG gaps with
    per-key prefix stitching, guarded (key, gap) histogram fold,
    libm-exp ECDF comparison at both step sides."""
    from console_log_parser_ray.stages.events import interarrival_fit

    return interarrival_fit(
        _events(sf_dir).select_columns(["event_type", "ts"])
    )



def _q_hysteresis(sf_dir: str):
    """Schmitt-trigger alerting per event_type: ON at value >= 100,
    OFF at value < 40, hold between (stages/events.hysteresis_alerts)
    -- range-bucketed last_value(mark IGNORE NULLS) with a
    keys x buckets carried-state fold."""
    from console_log_parser_ray.stages.events import hysteresis_alerts

    return hysteresis_alerts(
        _events(sf_dir).select_columns(["event_type", "ts", "value"])
    )


def _q_fano(sf_dir: str):
    """Burstiness per event_type: Fano factor of 6-hour tumbling
    window counts over the full span, empty windows included
    (stages/events.fano_factor) -- exact int64 count/square partials,
    one float division per key."""
    from console_log_parser_ray.stages.events import fano_factor

    return fano_factor(
        _events(sf_dir).select_columns(["event_type", "ts"])
    )


def _q_changepoint(sf_dir: str):
    """Binary-segmentation changepoint per event_type: the split of
    the (ts, value)-ordered integer-cent series minimizing two-segment
    SSE (stages/events.changepoint_mean) -- range-bucketed exact
    prefix sums, one float g(i) per candidate, (g DESC, i ASC)
    tie-break."""
    from console_log_parser_ray.stages.events import changepoint_mean

    return changepoint_mean(
        _events(sf_dir).select_columns(["event_type", "ts", "value"])
    )


def _q_window_movers(sf_dir: str):
    """Largest count jump between consecutive non-empty 6-hour
    windows per event_type (stages/events.window_movers) -- bounded
    (key, window) count fold + keys x windows driver scan."""
    from console_log_parser_ray.stages.events import window_movers

    return window_movers(
        _events(sf_dir).select_columns(["event_type", "ts"])
    )


def _q_log_odds(sf_dir: str):
    """Monroe weighted log-odds (corpus Dirichlet prior) of src1 vs
    the rest, top 50 by z (stages/textan.log_odds_tokens) --
    token-hash bucket counts, per-bucket top-k merge."""
    from console_log_parser_ray.stages.textan import log_odds_tokens

    return log_odds_tokens(
        _docs(sf_dir).select_columns(["source", "text"])
    )


def _q_token_burstiness(sf_dir: str):
    """Church-Gale burstiness occ/df, df >= 5, top 50
    (stages/textan.token_burstiness) -- bucket-local exact df/occ,
    one float ratio per token."""
    from console_log_parser_ray.stages.textan import token_burstiness

    return token_burstiness(
        _docs(sf_dir).select_columns(["doc_id", "text"])
    )


def _q_mmr(sf_dir: str):
    """Maximal Marginal Relevance pick of 10 diverse vectors around
    vec_id 0 (stages/similarity.mmr_select) -- k streaming argmax
    passes, selected matrix broadcast per step, integer-only
    output."""
    import ray.data

    from console_log_parser_ray.stages.similarity import mmr_select

    emb = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    return mmr_select(emb, query_id=0, k=10)


def _q_q4_priority(sf_dir: str):
    """TPC-H Q4-shaped order-priority check: orders in 1995-Q3 with
    at least one line item shipped more than 60 days after the order
    date, counted per priority -- size-adaptive lookup_join
    (broadcast under the cap) + distinct-order dedup + bounded
    rollup."""
    import datetime

    import ray.data
    from ray.data.aggregate import Count, Sum

    from console_log_parser_ray.stages.relational import lookup_join

    lo = datetime.datetime(1995, 7, 1)
    hi = datetime.datetime(1995, 10, 1)
    late_us = 60 * 86_400_000_000  # 60 days in microseconds

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )

    def in_window(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        return b.filter(
            pc.and_(
                pc.greater_equal(
                    b.column("o_orderdate"), pa.scalar(lo)
                ),
                pc.less(b.column("o_orderdate"), pa.scalar(hi)),
            )
        )

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate"],
    )
    joined = lookup_join(
        li,
        orders.map_batches(in_window, batch_format="pyarrow"),
        on="l_orderkey",
        right_on="o_orderkey",
        how="inner",
    )

    def late_pairs(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        t = b.filter(
            pc.greater(
                b.column("l_shipdate").cast(pa.int64()),
                pc.add(
                    b.column("o_orderdate").cast(pa.int64()),
                    pa.scalar(late_us, pa.int64()),
                ),
            )
        )
        # per-block distinct (order, priority) partial: the final
        # groupby then sees one row per (order, block)
        return (
            t.select(["l_orderkey", "o_orderpriority"])
            .group_by(["l_orderkey", "o_orderpriority"])
            .aggregate([([], "count_all")])
            .select(["l_orderkey", "o_orderpriority"])
        )

    def ones(b):
        import pyarrow as pa

        return pa.table(
            {
                "o_orderpriority": b.column("o_orderpriority"),
                "one": pa.array([1] * b.num_rows, pa.int64()),
            }
        )

    res = (
        joined.map_batches(late_pairs, batch_format="pyarrow")
        .groupby(["l_orderkey", "o_orderpriority"])
        .aggregate(Count())
        .map_batches(ones, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("one"))
    )

    def rename(b):
        import pyarrow as pa

        return pa.table(
            {
                "o_orderpriority": b.column("o_orderpriority"),
                "order_count": b.column("sum(one)").cast(pa.int64()),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def _q_alert_cooldown(sf_dir: str):
    """Cooldown-throttled alerts per event_type, 4-day cooldown
    (stages/events.alert_cooldown) -- bounded driver-iterative min
    passes; recursive-CTE oracle."""
    from console_log_parser_ray.stages.events import alert_cooldown

    return alert_cooldown(
        _events(sf_dir).select_columns(["event_type", "ts"])
    )


def _q_mase(sf_dir: str):
    """Seasonal-naive MASE over zero-filled 6-hour windows with a
    1-day period (stages/events.mase_seasonal) -- bounded count fold
    + exact integer absolute-error sums."""
    from console_log_parser_ray.stages.events import mase_seasonal

    return mase_seasonal(
        _events(sf_dir).select_columns(["event_type", "ts"])
    )


def _q_ols_trend(sf_dir: str):
    """Per-event-type OLS trend of integer-cent value vs day index
    (stages/events.ols_trend) -- exact int64 sufficient statistics,
    Python big-int cross terms, one float conversion per factor."""
    from console_log_parser_ray.stages.events import ols_trend

    return ols_trend(
        _events(sf_dir).select_columns(["event_type", "ts", "value"])
    )


def _q_assortativity(sf_dir: str):
    """Degree assortativity of the 1998+ part co-purchase graph
    (stages/graph.degree_assortativity over cooccur_pair_edges) --
    bounded degree fold broadcast once, per-block exact partials."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from console_log_parser_ray.stages.graph import (
        cooccur_pair_edges,
        degree_assortativity,
    )

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_shipdate"],
    )
    cutoff = pa.scalar(883612800000000, pa.int64())  # 1998-01-01 us

    def recent(b: pa.Table) -> pa.Table:
        keep = pc.greater_equal(
            b.column("l_shipdate").cast(pa.int64()), cutoff
        )
        return b.filter(keep).select(["l_orderkey", "l_partkey"])

    edges = cooccur_pair_edges(
        li.map_batches(recent, batch_format="pyarrow"),
        "l_orderkey",
        "l_partkey",
    )
    return degree_assortativity(edges)


def _q_basket_rules(sf_dir: str):
    """Association rules over order baskets: support >= 2 part pairs
    ranked by lift (stages/graph.association_rules) -- group-bucket
    pair-count partials, broadcast item counts, per-block top-k."""
    import ray.data

    from console_log_parser_ray.stages.graph import association_rules

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey"],
    )
    return association_rules(li, "l_orderkey", "l_partkey")


def _q_markov_entropy(sf_dir: str):
    """Per-state next-event conditional entropy of the user event
    chain (stages/events.markov_entropy) -- transition_counts fold +
    micro-nat quantized finish."""
    from console_log_parser_ray.stages.events import markov_entropy

    return markov_entropy(
        _events(sf_dir).select_columns(
            ["user_id", "ts", "event_type"]
        )
    )


def _q_bursty_users(sf_dir: str):
    """Top-50 burstiest users by per-user windowed Fano factor
    (stages/events.bursty_users) -- fully data-plane, per-block
    top-k candidates only."""
    from console_log_parser_ray.stages.events import bursty_users

    return bursty_users(
        _events(sf_dir).select_columns(["user_id", "ts"])
    )


def _q_bot_regularity(sf_dir: str):
    """Most metronomic users by inter-event gap CV
    (stages/events.bot_regularity) -- user-hash bucket lexsort+diff,
    exact second-quantized sums."""
    from console_log_parser_ray.stages.events import bot_regularity

    return bot_regularity(
        _events(sf_dir).select_columns(["user_id", "ts"])
    )


def _q_q7_nation_flows(sf_dir: str):
    """TPC-H Q7-shaped trade-flow matrix: 1996 revenue between every
    (supplier nation, customer nation) pair, cross-nation only --
    the deepest join chain in the registry: lineitem x orders via
    size-adaptive lookup_join, supplier/customer/nation dimensions
    broadcast once as sorted key arrays, revenue in exact
    cent-hundredths (the q5 convention)."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.aggregate import Count, Sum

    from console_log_parser_ray.stages.dedup import _cached_get
    from console_log_parser_ray.stages.relational import lookup_join

    def _key_map(path, key, val):
        import pyarrow.parquet as pq

        t = pq.read_table(
            os.path.join(sf_dir, path), columns=[key, val]
        )
        k = np.asarray(t.column(key).to_pylist(), np.int64)
        v = np.asarray(t.column(val).to_pylist())
        order = np.argsort(k)
        return k[order], v[order]

    sk, sn = _key_map("supplier.parquet", "s_suppkey", "s_nationkey")
    ck, cn = _key_map("customer.parquet", "c_custkey", "c_nationkey")
    nk, nname = _key_map("nation.parquet", "n_nationkey", "n_name")
    ref = ray.put(
        (sk, sn.astype(np.int64), ck, cn.astype(np.int64))
    )
    names = {int(k): str(v) for k, v in zip(nk, nname)}

    import datetime

    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1997, 1, 1)

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )

    def in_year(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        return b.filter(
            pc.and_(
                pc.greater_equal(
                    b.column("o_orderdate"), pa.scalar(lo)
                ),
                pc.less(b.column("o_orderdate"), pa.scalar(hi)),
            )
        ).select(["o_orderkey", "o_custkey"])

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
        ],
    )
    joined = lookup_join(
        li,
        orders.map_batches(in_year, batch_format="pyarrow"),
        on="l_orderkey",
        right_on="o_orderkey",
        how="inner",
    )

    def flows(b, _r=ref):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        s_k, s_n, c_k, c_n = _cached_get(_r)
        supp = b.column("l_suppkey").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        cust = b.column("o_custkey").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        from console_log_parser_ray.stages.relational import fk_searchsorted

        sn_ = s_n[fk_searchsorted(s_k, supp, "q7 supplier fk")]
        cn_ = c_n[fk_searchsorted(c_k, cust, "q7 customer fk")]
        cents = pc.cast(
            pc.round(
                pc.multiply(
                    b.column("l_extendedprice").cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        disc = pc.cast(
            pc.round(
                pc.multiply(
                    b.column("l_discount").cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        rev = cents * (100 - disc)
        keep = sn_ != cn_
        g = (
            pa.table(
                {
                    "sn": pa.array(sn_[keep], pa.int64()),
                    "cn": pa.array(cn_[keep], pa.int64()),
                    "rev": pa.array(rev[keep], pa.int64()),
                    "one": pa.array(
                        np.ones(int(keep.sum()), np.int64),
                        pa.int64(),
                    ),
                }
            )
            .group_by(["sn", "cn"])
            .aggregate([("rev", "sum"), ("one", "sum")])
        )
        return g.rename_columns(["sn", "cn", "rev_p", "n_p"])

    agg = (
        joined.map_batches(flows, batch_format="pyarrow")
        .groupby(["sn", "cn"])
        .aggregate(Sum("rev_p"), Sum("n_p"))
        .take_all()
    )  # <= nations^2 rows
    agg.sort(key=lambda r: (int(r["sn"]), int(r["cn"])))
    return pa.table(
        {
            "supp_nation": pa.array(
                [names[int(r["sn"])] for r in agg], pa.string()
            ),
            "cust_nation": pa.array(
                [names[int(r["cn"])] for r in agg], pa.string()
            ),
            "revenue_milli": pa.array(
                [int(r["sum(rev_p)"]) for r in agg], pa.int64()
            ),
            "n_items": pa.array(
                [int(r["sum(n_p)"]) for r in agg], pa.int64()
            ),
        }
    )


def _q_brand_returns(sf_dir: str):
    """Return rate by part brand: broadcast part dimension, exact
    integer quantity sums, one float ratio per brand."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.stages.dedup import _cached_get

    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand"],
    )
    pk = np.asarray(t.column("p_partkey").to_pylist(), np.int64)
    br = np.asarray(t.column("p_brand").to_pylist())
    order = np.argsort(pk)
    pk, br = pk[order], br[order]
    brands = sorted(set(br.tolist()))
    bid = {b: i for i, b in enumerate(brands)}
    bidx = np.array([bid[b] for b in br], np.int64)
    ref = ray.put((pk, bidx))

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_returnflag", "l_quantity"],
    )

    def partial(b, _r=ref):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        p_k, b_i = _cached_get(_r)
        part = b.column("l_partkey").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        qty = pc.cast(
            pc.round(b.column("l_quantity").cast(pa.float64())),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        ret = pc.equal(
            b.column("l_returnflag"), pa.scalar("R")
        ).to_numpy(zero_copy_only=False)
        from console_log_parser_ray.stages.relational import fk_searchsorted

        bi = b_i[fk_searchsorted(p_k, part, "brand_returns part fk")]
        n_b = len(brands)
        tot = np.zeros(n_b, np.int64)
        retq = np.zeros(n_b, np.int64)
        np.add.at(tot, bi, qty)
        np.add.at(retq, bi[ret], qty[ret])
        nz = np.flatnonzero(tot > 0)
        return pa.table(
            {
                "bi": pa.array(nz, pa.int64()),
                "tot_p": pa.array(tot[nz], pa.int64()),
                "ret_p": pa.array(retq[nz], pa.int64()),
            }
        )

    agg = (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("bi")
        .aggregate(Sum("tot_p"), Sum("ret_p"))
        .take_all()
    )  # one row per brand
    agg.sort(key=lambda r: int(r["bi"]))
    return pa.table(
        {
            "p_brand": pa.array(
                [brands[int(r["bi"])] for r in agg], pa.string()
            ),
            "qty_returned": pa.array(
                [int(r["sum(ret_p)"]) for r in agg], pa.int64()
            ),
            "qty_total": pa.array(
                [int(r["sum(tot_p)"]) for r in agg], pa.int64()
            ),
            "return_rate": pa.array(
                [
                    float(int(r["sum(ret_p)"]))
                    / float(int(r["sum(tot_p)"]))
                    for r in agg
                ],
                pa.float64(),
            ),
        }
    )


def _q_wilson_ctr(sf_dir: str):
    """Wilson 95% lower-bound click/(click+view) ranking per user
    (stages/events.wilson_ctr) -- exact count partials, bitwise-
    matching float tree."""
    from console_log_parser_ray.stages.events import wilson_ctr

    return wilson_ctr(
        _events(sf_dir).select_columns(["user_id", "event_type"])
    )


def _q_target_encode(sf_dir: str):
    """Smoothed target encoding of value by event_type
    (stages/events.target_encode) -- one bounded groupby, exact cent
    sums, one float expression per category."""
    from console_log_parser_ray.stages.events import target_encode

    return target_encode(
        _events(sf_dir).select_columns(["event_type", "value"])
    )


def _q_ttfp(sf_dir: str):
    """Signup-to-first-purchase latency quantiles per weekly cohort:
    stages/events.time_to_convert composed with the exact
    group_quantiles operator."""
    from console_log_parser_ray.stages.events import (
        group_quantiles,
        time_to_convert,
    )

    deltas = time_to_convert(
        _events(sf_dir).select_columns(
            ["user_id", "ts", "event_type"]
        )
    )
    return group_quantiles(
        deltas, "cohort_week", "delta_days", qs=(0.5, 0.9)
    )


def _q_rfm(sf_dir: str):
    """RFM tercile segmentation with exact percentile_disc edges
    (stages/events.rfm_segments)."""
    from console_log_parser_ray.stages.events import rfm_segments

    return rfm_segments(
        _events(sf_dir).select_columns(
            ["user_id", "ts", "event_type", "value"]
        )
    )


def _q_bounce(sf_dir: str):
    """Gap-rule bounce rate over user event sequences
    (stages/events.bounce_rate) -- one user-hash bucket shuffle, two
    exact integers out."""
    from console_log_parser_ray.stages.events import bounce_rate

    return bounce_rate(
        _events(sf_dir).select_columns(["user_id", "ts"])
    )


def _q_concentration(sf_dir: str):
    """Top-1% customer revenue share with an exact percentile_disc
    threshold (stages/events.revenue_concentration)."""
    import ray.data

    from console_log_parser_ray.stages.events import (
        revenue_concentration,
    )

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_totalprice"],
    )
    return revenue_concentration(orders)


def _q_js(sf_dir: str):
    """Jensen-Shannon value drift between time halves
    (stages/events.js_divergence) -- micro-nat exact, guarded
    histogram fold."""
    from console_log_parser_ray.stages.events import js_divergence

    return js_divergence(
        _events(sf_dir).select_columns(["ts", "value"])
    )


def _q_ttr(sf_dir: str):
    """Type-token ratio per source (stages/textan.ttr_by_source) --
    bucket-local distinct-type partials, exact ints."""
    from console_log_parser_ray.stages.textan import ttr_by_source

    return ttr_by_source(
        _docs(sf_dir).select_columns(["source", "text"])
    )


def _q_ri_audit(sf_dir: str):
    """Referential-integrity audit: orphan counts for the four
    foreign-key relationships, each via the size-adaptive anti
    lookup_join (broadcast key set under the cap); exact counts."""
    import pyarrow as pa
    import ray.data

    from console_log_parser_ray.stages.relational import lookup_join

    rels = (
        ("lineitem.l_orderkey->orders", "lineitem", "l_orderkey",
         "orders", "o_orderkey"),
        ("lineitem.l_partkey->part", "lineitem", "l_partkey",
         "part", "p_partkey"),
        ("lineitem.l_suppkey->supplier", "lineitem", "l_suppkey",
         "supplier", "s_suppkey"),
        ("orders.o_custkey->customer", "orders", "o_custkey",
         "customer", "c_custkey"),
    )
    names, totals, orphans = [], [], []
    for name, child, ck, parent, pk in rels:
        c = ray.data.read_parquet(
            os.path.join(sf_dir, f"{child}.parquet"), columns=[ck]
        )
        p = ray.data.read_parquet(
            os.path.join(sf_dir, f"{parent}.parquet"), columns=[pk]
        )
        n_child = c.count()
        n_orphan = lookup_join(
            c, p, on=ck, right_on=pk, how="anti"
        ).count()
        names.append(name)
        totals.append(n_child)
        orphans.append(n_orphan)
    return pa.table(
        {
            "relationship": pa.array(names, pa.string()),
            "n_child_rows": pa.array(totals, pa.int64()),
            "n_orphans": pa.array(orphans, pa.int64()),
        }
    )


def _q_session_durations(sf_dir: str):
    """Gap-rule session duration quantiles
    (stages/events.session_duration_quantiles) -- bucket-local
    session resolution + guarded histogram fold."""
    from console_log_parser_ray.stages.events import (
        session_duration_quantiles,
    )

    return session_duration_quantiles(
        _events(sf_dir).select_columns(["user_id", "ts"])
    )


def _q_chapman(sf_dir: str):
    """Chapman capture-recapture user-population estimate between
    time halves (stages/events.chapman_estimate)."""
    from console_log_parser_ray.stages.events import chapman_estimate

    return chapman_estimate(
        _events(sf_dir).select_columns(["user_id", "ts"])
    )


def _q_dow_hour(sf_dir: str):
    """Day-of-week x hour activity heatmap in timezone-free epoch
    arithmetic (stages/events.dow_hour_counts)."""
    from console_log_parser_ray.stages.events import dow_hour_counts

    return dow_hour_counts(_events(sf_dir).select_columns(["ts"]))


def _q_brand_reorder(sf_dir: str):
    """Repeat-purchase rate by brand: fraction of (customer, part)
    pairs ordered in two or more distinct orders -- distinct
    (order, part) fold, size-adaptive customer attach, packed-key
    pair counts, broadcast brand finish."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.aggregate import Count, Sum

    from console_log_parser_ray.sources.cache import map_keyed
    from console_log_parser_ray.stages.dedup import _cached_get
    from console_log_parser_ray.stages.relational import lookup_join

    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand"],
    )
    pk = np.asarray(t.column("p_partkey").to_pylist(), np.int64)
    br = np.asarray(t.column("p_brand").to_pylist())
    order = np.argsort(pk)
    pk, br = pk[order], br[order]
    brands = sorted(set(br.tolist()))
    bid = {b: i for i, b in enumerate(brands)}
    bidx = np.array([bid[b] for b in br], np.int64)
    ref = ray.put((pk, bidx))

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey"],
    )

    def op_partial(b):
        import numpy as np
        import pyarrow as pa

        g = (
            pa.table(
                {
                    "o": b.column("l_orderkey").cast(pa.int64()),
                    "p": b.column("l_partkey").cast(pa.int64()),
                }
            )
            .group_by(["o", "p"])
            .aggregate([([], "count_all")])
        )
        o = g.column("o").to_numpy(zero_copy_only=False)
        p = g.column("p").to_numpy(zero_copy_only=False)
        packed = o * np.int64(4_294_967_296) + p
        return pa.table(
            {
                "packed": pa.array(packed, pa.int64()),
                "o": g.column("o"),
                "p": g.column("p"),
            }
        )

    def op_distinct(tbl):
        import pandas as pd
        import pyarrow as pa

        df = tbl.select(["o", "p"]).to_pandas().drop_duplicates()
        return pa.table(
            {
                "o": pa.array(
                    df["o"].to_numpy(dtype="int64"), pa.int64()
                ),
                "p": pa.array(
                    df["p"].to_numpy(dtype="int64"), pa.int64()
                ),
            }
        )

    # global distinct (order, part) via ONE pair-key bucket fold
    # (dispatch bounded by bucket count, no two-column
    # sort-aggregate)
    op = map_keyed(
        li.map_batches(op_partial, batch_format="pyarrow"),
        op_distinct,
        key="packed",
        n_buckets=64,
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    )
    j = lookup_join(
        op, orders, on="o", right_on="o_orderkey", how="inner"
    )

    def pack_cp(b):
        import numpy as np
        import pyarrow as pa

        c = b.column("o_custkey").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        p = b.column("p").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        # the (custkey, partkey) pack is only reversible for ids in
        # [0, 2^32); unlike association_rules' packing (where a
        # collision just mis-buckets), recovering partkey from cp is
        # SEMANTIC, so fail loud outside that range
        if len(c) and (
            int(c.min()) < 0
            or int(p.min()) < 0
            or int(c.max()) >= 4_294_967_296
            or int(p.max()) >= 4_294_967_296
        ):
            raise ValueError(
                "brand_reorder: custkey/partkey outside [0, 2^32) "
                "breaks the cp pack"
            )
        g = (
            pa.table(
                {
                    "cp": pa.array(
                        c * np.int64(4_294_967_296) + p, pa.int64()
                    ),
                    "one": pa.array(
                        np.ones(len(c), np.int64), pa.int64()
                    ),
                }
            )
            .group_by("cp")
            .aggregate([("one", "sum")])
        )
        return g.rename_columns(["cp", "n_p"])

    def fold_cp(tbl):
        import pyarrow as pa

        g = (
            tbl.select(["cp", "n_p"])
            .group_by("cp")
            .aggregate([("n_p", "sum")])
        )
        return pa.table(
            {
                "cp": g.column("cp"),
                "sum(n_p)": g.column("n_p_sum").cast(pa.int64()),
            }
        )

    def brand_part(b, _r=ref):
        import numpy as np
        import pyarrow as pa

        p_k, b_i = _cached_get(_r)
        cp = b.column("cp").to_numpy(zero_copy_only=False)
        n = b.column("sum(n_p)").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        part = cp % np.int64(4_294_967_296)
        from console_log_parser_ray.stages.relational import fk_searchsorted

        bi = b_i[fk_searchsorted(p_k, part, "brand_reorder part fk")]
        n_b = len(brands)
        pairs = np.zeros(n_b, np.int64)
        rep = np.zeros(n_b, np.int64)
        np.add.at(pairs, bi, 1)
        np.add.at(rep, bi[n >= 2], 1)
        nz = np.flatnonzero(pairs > 0)
        return pa.table(
            {
                "bi": pa.array(nz, pa.int64()),
                "pair_p": pa.array(pairs[nz], pa.int64()),
                "rep_p": pa.array(rep[nz], pa.int64()),
            }
        )

    agg = (
        map_keyed(
            j.map_batches(pack_cp, batch_format="pyarrow"),
            fold_cp,
            key="cp",
            n_buckets=64,
        )
        .map_batches(brand_part, batch_format="pyarrow")
        .groupby("bi")
        .aggregate(Sum("pair_p"), Sum("rep_p"))
        .take_all()
    )
    agg.sort(key=lambda r: int(r["bi"]))
    return pa.table(
        {
            "p_brand": pa.array(
                [brands[int(r["bi"])] for r in agg], pa.string()
            ),
            "n_pairs": pa.array(
                [int(r["sum(pair_p)"]) for r in agg], pa.int64()
            ),
            "n_repeat": pa.array(
                [int(r["sum(rep_p)"]) for r in agg], pa.int64()
            ),
            "reorder_rate": pa.array(
                [
                    float(int(r["sum(rep_p)"]))
                    / float(int(r["sum(pair_p)"]))
                    for r in agg
                ],
                pa.float64(),
            ),
        }
    )


def _q_order_size_hist(sf_dir: str):
    """Items-per-order histogram: two bounded count folds."""
    import ray.data
    from ray.data.aggregate import Sum

    import pyarrow as pa

    from console_log_parser_ray.sources.cache import map_keyed

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey"],
    )

    def partial(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        t = b.filter(pc.is_valid(b.column("l_orderkey")))
        g = (
            pa.table(
                {"o": t.column("l_orderkey").cast(pa.int64())}
            )
            .group_by("o")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "o": g.column("o"),
                "c_p": g.column("count_all").cast(pa.int64()),
            }
        )

    def fold_hist(tbl):
        import pyarrow as pa

        # orders partition into buckets: fold per-order counts, then
        # the bucket's histogram partial -- one all-to-all total
        g = (
            tbl.select(["o", "c_p"])
            .group_by("o")
            .aggregate([("c_p", "sum")])
        )
        h = (
            pa.table(
                {"n_items": g.column("c_p_sum").cast(pa.int64())}
            )
            .group_by("n_items")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "n_items": h.column("n_items"),
                "h_p": h.column("count_all").cast(pa.int64()),
            }
        )

    return (
        map_keyed(
            li.map_batches(partial, batch_format="pyarrow"),
            fold_hist,
            key="o",
            n_buckets=64,
        )
        .groupby("n_items")
        .aggregate(Sum("h_p"))
        .rename_columns({"sum(h_p)": "n_orders"})
    )


def _q_profile_events(sf_dir: str):
    """Per-column profile of the events table (stages/profile.
    profile_table reused on a second table): exact row / null /
    distinct counts per column."""
    import ray.data

    from console_log_parser_ray.stages.profile import profile_table

    return profile_table(
        ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    )


def _q_brand_growth(sf_dir: str):
    """Brand growth-share grid: each brand's revenue share of the
    whole corpus and its second-half/first-half growth ratio --
    exact cent-hundredth revenue per (brand, half), one float per
    output column."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.stages.dedup import _cached_get
    from console_log_parser_ray.stages.relational import lookup_join

    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand"],
    )
    pk = np.asarray(t.column("p_partkey").to_pylist(), np.int64)
    br = np.asarray(t.column("p_brand").to_pylist())
    order = np.argsort(pk)
    pk, br = pk[order], br[order]
    brands = sorted(set(br.tolist()))
    bid = {b: i for i, b in enumerate(brands)}
    bidx = np.array([bid[b] for b in br], np.int64)
    ref = ray.put((pk, bidx))

    # orders span midpoint (exact integer microseconds)
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_orderkey",
            "l_partkey",
            "l_extendedprice",
            "l_discount",
        ],
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate"],
    )
    mn = orders.min("o_orderdate")
    mx = orders.max("o_orderdate")
    from console_log_parser_ray.stages.events import _ts_scalar_us

    mid = (_ts_scalar_us(mn) + _ts_scalar_us(mx)) // 2

    j = lookup_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        how="inner",
    )

    def partial(b, _r=ref):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        p_k, b_i = _cached_get(_r)
        part = b.column("l_partkey").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        cents = pc.cast(
            pc.round(
                pc.multiply(
                    b.column("l_extendedprice").cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        disc = pc.cast(
            pc.round(
                pc.multiply(
                    b.column("l_discount").cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        rev = cents * (100 - disc)
        cur = (
            b.column("o_orderdate").cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            >= mid
        )
        from console_log_parser_ray.stages.relational import fk_searchsorted

        bi = b_i[fk_searchsorted(p_k, part, "brand_growth part fk")]
        n_b = len(brands)
        r1 = np.zeros(n_b, np.int64)
        r2 = np.zeros(n_b, np.int64)
        np.add.at(r1, bi[~cur], rev[~cur])
        np.add.at(r2, bi[cur], rev[cur])
        nz = np.flatnonzero((r1 != 0) | (r2 != 0))
        return pa.table(
            {
                "bi": pa.array(nz, pa.int64()),
                "r1_p": pa.array(r1[nz], pa.int64()),
                "r2_p": pa.array(r2[nz], pa.int64()),
            }
        )

    agg = (
        j.map_batches(partial, batch_format="pyarrow")
        .groupby("bi")
        .aggregate(Sum("r1_p"), Sum("r2_p"))
        .take_all()
    )
    agg.sort(key=lambda r: int(r["bi"]))
    tot = sum(
        int(r["sum(r1_p)"]) + int(r["sum(r2_p)"]) for r in agg
    )
    out = {
        "p_brand": [],
        "rev_first": [],
        "rev_second": [],
        "share": [],
        "growth": [],
    }
    for r in agg:
        r1 = int(r["sum(r1_p)"])
        r2 = int(r["sum(r2_p)"])
        out["p_brand"].append(brands[int(r["bi"])])
        out["rev_first"].append(r1)
        out["rev_second"].append(r2)
        out["share"].append(float(r1 + r2) / float(tot))
        out["growth"].append(
            float(r2) / float(r1) if r1 > 0 else None
        )
    return pa.table(
        {
            "p_brand": pa.array(out["p_brand"], pa.string()),
            "rev_first": pa.array(out["rev_first"], pa.int64()),
            "rev_second": pa.array(out["rev_second"], pa.int64()),
            "share": pa.array(out["share"], pa.float64()),
            "growth": pa.array(out["growth"], pa.float64()),
        }
    )


def _q_tool_rules(sf_dir: str):
    """Association rules between TOOLS used in the same conversation
    (stages/graph.association_rules on the enriched transcripts):
    which tools co-occur beyond independence.  Tool ids are assigned
    in sorted order so the int pair order matches the SQL mirror's
    string order.

    Both passes (vocabulary, then rules) read the cached enriched
    parquet column-pruned to the two tiny columns they need -- the
    10M-turn session scan that used to run TWICE here now runs zero
    times after the one-time ``ensure_enriched`` build.  The cache's
    files are conversation-complete, so the pair-count partials are
    built with one task per file (pair_count_partials) and the
    group-hash exchange inside association_rules disappears too."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.stages.graph import (
        association_rules,
        pair_count_partials,
    )

    tools: set = set()
    for tbl in _enriched_cached(sf_dir, ["tool"]).map_batches(
        lambda b: pa.table(
            {
                "t": pc.unique(
                    pc.fill_null(b.column("tool").combine_chunks(), "")
                )
            }
        ),
        batch_format="pyarrow",
    ).iter_batches(batch_format="pyarrow"):
        tools.update(tbl.column("t").to_pylist())
    tools.discard("")
    tools = sorted(tools)
    tid = {t: i for i, t in enumerate(tools)}

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("tool")),
                pc.not_equal(b.column("tool"), pa.scalar("")),
            )
        )
        g = pc.cast(
            pc.utf8_slice_codeunits(
                t.column("conv_id").combine_chunks(), 4, 2**30
            ),
            pa.int64(),
        )
        enc = pc.dictionary_encode(t.column("tool").combine_chunks())
        dmap = np.array(
            [tid[x] for x in enc.dictionary.to_pylist()], np.int64
        )
        i = pa.array(
            dmap[enc.indices.to_numpy(zero_copy_only=False)],
            pa.int64(),
        )
        return pa.table({"g": g, "i": i})

    partials = _enriched_conv_partials(
        sf_dir,
        ["conv_id", "tool"],
        lambda t: pair_count_partials(project(t)),
    )
    res = association_rules(
        None, "g", "i", min_support=2, k=30, partials=partials
    )
    return pa.table(
        {
            "tool_a": pa.array(
                [tools[int(x)] for x in res.column("a").to_pylist()],
                pa.string(),
            ),
            "tool_b": pa.array(
                [tools[int(x)] for x in res.column("b").to_pylist()],
                pa.string(),
            ),
            "support": res.column("support"),
            "conf_ab": res.column("conf_ab"),
            "conf_ba": res.column("conf_ba"),
            "lift": res.column("lift"),
        }
    )


def _q_tool_transitions(sf_dir: str):
    """Markov transition counts over each conversation's tool
    sequence (stages/events.transition_counts reused on the
    enriched transcripts; empty-tool turns drop before pairing).
    Same math as stages/events.transition_counts' per-bucket kernel,
    but run shuffle-free as per-file partials over the conv-complete
    enriched cache."""
    from ray.data.aggregate import Sum

    def per_group(tbl):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        t = tbl.filter(
            pc.and_(
                pc.is_valid(tbl.column("tool")),
                pc.not_equal(tbl.column("tool"), pa.scalar("")),
            )
        ).sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
        keys = t.column("conv_id").to_numpy(zero_copy_only=False)
        states = t.column("tool").combine_chunks()
        empty = pa.table(
            {
                "from_state": pa.array([], pa.string()),
                "to_state": pa.array([], pa.string()),
                "n_part": pa.array([], pa.int64()),
            }
        )
        if len(keys) < 2:
            return empty
        idx = np.nonzero(keys[1:] == keys[:-1])[0]
        pairs = pa.table(
            {
                "from_state": states.take(pa.array(idx, pa.int64())),
                "to_state": states.take(
                    pa.array(idx + 1, pa.int64())
                ),
            }
        )
        agg = pairs.group_by(["from_state", "to_state"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "from_state": agg.column("from_state"),
                "to_state": agg.column("to_state"),
                "n_part": agg.column("count_all").cast(pa.int64()),
            }
        )

    return (
        _enriched_conv_partials(
            sf_dir, ["conv_id", "turn_idx", "tool"], per_group
        )
        .groupby(["from_state", "to_state"])
        .aggregate(Sum("n_part"))
        .rename_columns({"sum(n_part)": "n"})
    )


def _q_segment_cadence(sf_dir: str):
    """Median days between consecutive orders per market segment:
    broadcast customer dimension, customer-hash bucket lexsort+diff,
    bounded (segment, gap-days) histogram, exact percentile_disc."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.sources.cache import map_keyed
    from console_log_parser_ray.stages.dedup import _cached_get

    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    ck = np.asarray(t.column("c_custkey").to_pylist(), np.int64)
    sg = np.asarray(t.column("c_mktsegment").to_pylist())
    order = np.argsort(ck)
    ck, sg = ck[order], sg[order]
    segs = sorted(set(sg.tolist()))
    sid = {s: i for i, s in enumerate(segs)}
    sidx = np.array([sid[s] for s in sg], np.int64)
    ref = ray.put((ck, sidx))

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderdate"],
    )

    def project(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("o_custkey")),
                pc.is_valid(b.column("o_orderdate")),
            )
        )
        c = t.column("o_custkey").cast(pa.int64())
        return pa.table(
            {
                "c": c,
                "t": t.column("o_orderdate").cast(pa.int64()),
            }
        )

    def per_bucket(tbl, _r=ref):
        import numpy as np
        import pyarrow as pa

        c_k, s_i = _cached_get(_r)
        c = tbl.column("c").to_numpy(zero_copy_only=False)
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        order = np.lexsort((t, c))
        c, t = c[order], t[order]
        same = c[1:] == c[:-1]
        gaps = (t[1:] - t[:-1]) // 86_400_000_000
        gc = c[1:][same]
        gaps = gaps[same]
        if len(gaps) == 0:
            return pa.table(
                {
                    "si": pa.array([], pa.int64()),
                    "gap": pa.array([], pa.int64()),
                    "c_part": pa.array([], pa.int64()),
                }
            )
        from console_log_parser_ray.stages.relational import fk_searchsorted

        si = s_i[fk_searchsorted(c_k, gc, "segment_cadence customer fk")]
        g = (
            pa.table(
                {
                    "si": pa.array(si, pa.int64()),
                    "gap": pa.array(gaps, pa.int64()),
                }
            )
            .group_by(["si", "gap"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "si": g.column("si"),
                "gap": g.column("gap"),
                "c_part": g.column("count_all").cast(pa.int64()),
            }
        )

    hist = (
        map_keyed(
            orders.map_batches(project, batch_format="pyarrow"),
            per_bucket,
            key="c",
            n_buckets=64,
        )
        .groupby(["si", "gap"])
        .aggregate(Sum("c_part"))
        .take_all()
    )  # <= segments x gap-days rows
    per: dict = {}
    for r in hist:
        per.setdefault(int(r["si"]), {})[int(r["gap"])] = int(
            r["sum(c_part)"]
        )
    out_s, out_n, out_p = [], [], []
    for si in sorted(per):
        h = per[si]
        n = sum(h.values())
        vals = sorted(h)
        cums = np.cumsum([h[v] for v in vals])
        target = int(np.ceil(0.5 * n))
        p50 = vals[int(np.searchsorted(cums, target))]
        out_s.append(segs[si])
        out_n.append(n)
        out_p.append(float(p50))
    return pa.table(
        {
            "c_mktsegment": pa.array(out_s, pa.string()),
            "n_gaps": pa.array(out_n, pa.int64()),
            "p50_days": pa.array(out_p, pa.float64()),
        }
    )


def _q_discount_curve(sf_dir: str):
    """Revenue by discount percent: one bounded groupby of exact
    cent-hundredth partials."""
    import ray.data
    from ray.data.aggregate import Sum

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_discount", "l_extendedprice"],
    )

    def partial(b):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("l_discount")),
                pc.is_valid(b.column("l_extendedprice")),
            )
        )
        disc = pc.cast(
            pc.round(
                pc.multiply(
                    t.column("l_discount").cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        )
        cents = pc.cast(
            pc.round(
                pc.multiply(
                    t.column("l_extendedprice").cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        d = disc.to_numpy(zero_copy_only=False)
        rev = cents * (100 - d)
        g = (
            pa.table(
                {
                    "disc_pct": disc,
                    "one": pa.array(
                        np.ones(len(d), np.int64), pa.int64()
                    ),
                    "rev": pa.array(rev, pa.int64()),
                }
            )
            .group_by("disc_pct")
            .aggregate([("one", "sum"), ("rev", "sum")])
        )
        return g.rename_columns(["disc_pct", "n_p", "r_p"])

    return (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("disc_pct")
        .aggregate(Sum("n_p"), Sum("r_p"))
        .rename_columns(
            {"sum(n_p)": "n_items", "sum(r_p)": "revenue_milli"}
        )
    )


def _q_part_type_pricing(sf_dir: str):
    """Category performance by part type: catalog stats from the
    dimension plus sold-quantity/revenue from the fact table via one
    broadcast -- exact cents, one float mean per row."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.stages.dedup import _cached_get

    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_type", "p_retailprice"],
    )
    pk = np.asarray(t.column("p_partkey").to_pylist(), np.int64)
    ty = np.asarray(t.column("p_type").to_pylist())
    rp = np.asarray(t.column("p_retailprice").to_pylist(), np.float64)
    order = np.argsort(pk)
    pk, ty, rp = pk[order], ty[order], rp[order]
    types = sorted(set(ty.tolist()))
    tid = {x: i for i, x in enumerate(types)}
    tidx = np.array([tid[x] for x in ty], np.int64)
    retail_cents = np.round(rp * 100.0).astype(np.int64)
    n_parts = np.zeros(len(types), np.int64)
    sum_retail = np.zeros(len(types), np.int64)
    np.add.at(n_parts, tidx, 1)
    np.add.at(sum_retail, tidx, retail_cents)
    ref = ray.put((pk, tidx))

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_partkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )

    def partial(b, _r=ref):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        p_k, t_i = _cached_get(_r)
        part = b.column("l_partkey").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        qty = pc.cast(
            pc.round(b.column("l_quantity").cast(pa.float64())),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        cents = pc.cast(
            pc.round(
                pc.multiply(
                    b.column("l_extendedprice").cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        disc = pc.cast(
            pc.round(
                pc.multiply(
                    b.column("l_discount").cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        rev = cents * (100 - disc)
        from console_log_parser_ray.stages.relational import fk_searchsorted

        ti = t_i[fk_searchsorted(p_k, part, "part_type_pricing part fk")]
        n_t = len(types)
        q = np.zeros(n_t, np.int64)
        r = np.zeros(n_t, np.int64)
        np.add.at(q, ti, qty)
        np.add.at(r, ti, rev)
        nz = np.flatnonzero((q != 0) | (r != 0))
        return pa.table(
            {
                "ti": pa.array(nz, pa.int64()),
                "q_p": pa.array(q[nz], pa.int64()),
                "r_p": pa.array(r[nz], pa.int64()),
            }
        )

    agg = {i: (0, 0) for i in range(len(types))}
    for r in (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("ti")
        .aggregate(Sum("q_p"), Sum("r_p"))
        .take_all()
    ):
        agg[int(r["ti"])] = (
            int(r["sum(q_p)"]),
            int(r["sum(r_p)"]),
        )
    return pa.table(
        {
            "p_type": pa.array(types, pa.string()),
            "n_parts": pa.array(n_parts, pa.int64()),
            "avg_retail_cents": pa.array(
                sum_retail.astype(np.float64)
                / n_parts.astype(np.float64),
                pa.float64(),
            ),
            "qty_sold": pa.array(
                [agg[i][0] for i in range(len(types))], pa.int64()
            ),
            "revenue_milli": pa.array(
                [agg[i][1] for i in range(len(types))], pa.int64()
            ),
        }
    )


def _q_region_balances(sf_dir: str):
    """Customer balance health by region: the three-level dimension
    chain (region <- nation <- customer) resolved with two driver
    lookups and one bounded groupby of exact cent partials."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.stages.dedup import _cached_get

    import pyarrow.parquet as pq

    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"],
    )
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"],
    )
    nk = np.asarray(nat.column("n_nationkey").to_pylist(), np.int64)
    nr = np.asarray(nat.column("n_regionkey").to_pylist(), np.int64)
    order = np.argsort(nk)
    nk, nr = nk[order], nr[order]
    rk = np.asarray(reg.column("r_regionkey").to_pylist(), np.int64)
    rn = np.asarray(reg.column("r_name").to_pylist())
    order = np.argsort(rk)
    rk, rn = rk[order], rn[order]
    ref = ray.put((nk, nr))

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_nationkey", "c_acctbal"],
    )

    def partial(b, _r=ref):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        n_k, n_r = _cached_get(_r)
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("c_nationkey")),
                pc.is_valid(b.column("c_acctbal")),
            )
        )
        nkey = t.column("c_nationkey").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        bal = pc.cast(
            pc.round(
                pc.multiply(
                    t.column("c_acctbal").cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        from console_log_parser_ray.stages.relational import fk_searchsorted

        rkey = n_r[fk_searchsorted(n_k, nkey, "region_balances nation fk")]
        n_reg = int(n_r.max()) + 1
        cnt = np.zeros(n_reg, np.int64)
        s = np.zeros(n_reg, np.int64)
        neg = np.zeros(n_reg, np.int64)
        np.add.at(cnt, rkey, 1)
        np.add.at(s, rkey, bal)
        np.add.at(neg, rkey, (bal < 0).astype(np.int64))
        nz = np.flatnonzero(cnt > 0)
        return pa.table(
            {
                "rk": pa.array(nz, pa.int64()),
                "n_p": pa.array(cnt[nz], pa.int64()),
                "s_p": pa.array(s[nz], pa.int64()),
                "neg_p": pa.array(neg[nz], pa.int64()),
            }
        )

    agg = (
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby("rk")
        .aggregate(Sum("n_p"), Sum("s_p"), Sum("neg_p"))
        .take_all()
    )
    agg.sort(key=lambda r: int(r["rk"]))
    names = {int(k): str(v) for k, v in zip(rk, rn)}
    out_r, out_n, out_s, out_neg, out_f = [], [], [], [], []
    for r in agg:
        n = int(r["sum(n_p)"])
        out_r.append(names[int(r["rk"])])
        out_n.append(n)
        out_s.append(int(r["sum(s_p)"]))
        out_neg.append(int(r["sum(neg_p)"]))
        out_f.append(float(int(r["sum(neg_p)"])) / float(n))
    return pa.table(
        {
            "r_name": pa.array(out_r, pa.string()),
            "n_customers": pa.array(out_n, pa.int64()),
            "sum_balance_cents": pa.array(out_s, pa.int64()),
            "n_negative": pa.array(out_neg, pa.int64()),
            "neg_share": pa.array(out_f, pa.float64()),
        }
    )


def _q_supplier_hhi(sf_dir: str):
    """Supplier concentration (Herfindahl index) per part type:
    HHI = sum(q_s^2) / Q^2 with exact integer quantity sums -- the
    order-free formulation that avoids summing float shares.  Packed
    (type, supplier) keys fold through one bucket pass; the per-type
    finish is one float expression."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.sources.cache import map_keyed
    from console_log_parser_ray.stages.dedup import _cached_get

    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_type"],
    )
    pk = np.asarray(t.column("p_partkey").to_pylist(), np.int64)
    ty = np.asarray(t.column("p_type").to_pylist())
    order = np.argsort(pk)
    pk, ty = pk[order], ty[order]
    types = sorted(set(ty.tolist()))
    tid = {x: i for i, x in enumerate(types)}
    tidx = np.array([tid[x] for x in ty], np.int64)
    ref = ray.put((pk, tidx))

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_quantity"],
    )

    def partial(b, _r=ref):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        p_k, t_i = _cached_get(_r)
        part = b.column("l_partkey").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        supp = b.column("l_suppkey").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        qty = pc.cast(
            pc.round(b.column("l_quantity").cast(pa.float64())),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        from console_log_parser_ray.stages.relational import fk_searchsorted

        ti = t_i[fk_searchsorted(p_k, part, "supplier_hhi part fk")]
        packed = ti * np.int64(4_294_967_296) + supp
        g = (
            pa.table(
                {
                    "ts": pa.array(packed, pa.int64()),
                    "q": pa.array(qty, pa.int64()),
                }
            )
            .group_by("ts")
            .aggregate([("q", "sum")])
        )
        return g.rename_columns(["ts", "q_p"])

    def fold(tbl):
        import numpy as np
        import pyarrow as pa

        g = (
            tbl.select(["ts", "q_p"])
            .group_by("ts")
            .aggregate([("q_p", "sum")])
        )
        ts_ = g.column("ts").to_numpy(zero_copy_only=False)
        q = g.column("q_p_sum").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        ti = ts_ // np.int64(4_294_967_296)
        n_t = int(ti.max()) + 1 if len(ti) else 0
        cnt = np.zeros(n_t, np.int64)
        s1 = np.zeros(n_t, np.int64)
        s2 = np.zeros(n_t, np.int64)
        np.add.at(cnt, ti, 1)
        np.add.at(s1, ti, q)
        np.add.at(s2, ti, q * q)
        nz = np.flatnonzero(cnt > 0)
        return pa.table(
            {
                "ti": pa.array(nz, pa.int64()),
                "n_p": pa.array(cnt[nz], pa.int64()),
                "s1_p": pa.array(s1[nz], pa.int64()),
                "s2_p": pa.array(s2[nz], pa.int64()),
            }
        )

    agg = (
        map_keyed(
            li.map_batches(partial, batch_format="pyarrow"),
            fold,
            key="ts",
            n_buckets=64,
        )
        .groupby("ti")
        .aggregate(Sum("n_p"), Sum("s1_p"), Sum("s2_p"))
        .take_all()
    )
    agg.sort(key=lambda r: int(r["ti"]))
    out_t, out_n, out_q, out_h = [], [], [], []
    for r in agg:
        s1 = int(r["sum(s1_p)"])
        s2 = int(r["sum(s2_p)"])
        out_t.append(types[int(r["ti"])])
        out_n.append(int(r["sum(n_p)"]))
        out_q.append(s1)
        out_h.append(
            float(s2) / (float(s1) * float(s1)) if s1 else None
        )
    return pa.table(
        {
            "p_type": pa.array(out_t, pa.string()),
            "n_suppliers": pa.array(out_n, pa.int64()),
            "qty_total": pa.array(out_q, pa.int64()),
            "hhi": pa.array(out_h, pa.float64()),
        }
    )


def _q_segment_priority_mix(sf_dir: str):
    """Order count per (market segment, order priority): customer
    dimension broadcast, bounded two-key groupby."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.stages.dedup import _cached_get

    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    ck = np.asarray(t.column("c_custkey").to_pylist(), np.int64)
    sg = np.asarray(t.column("c_mktsegment").to_pylist())
    order = np.argsort(ck)
    ck, sg = ck[order], sg[order]
    segs = sorted(set(sg.tolist()))
    sid = {s: i for i, s in enumerate(segs)}
    sidx = np.array([sid[s] for s in sg], np.int64)
    ref = ray.put((ck, sidx))

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderpriority"],
    )

    def partial(b, _r=ref):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        c_k, s_i = _cached_get(_r)
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("o_custkey")),
                pc.is_valid(b.column("o_orderpriority")),
            )
        )
        cust = t.column("o_custkey").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        from console_log_parser_ray.stages.relational import fk_searchsorted

        si = s_i[fk_searchsorted(c_k, cust, "segment_priority_mix customer fk")]
        g = (
            pa.table(
                {
                    "si": pa.array(si, pa.int64()),
                    "prio": t.column("o_orderpriority"),
                }
            )
            .group_by(["si", "prio"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "si": g.column("si"),
                "prio": g.column("prio"),
                "n_p": g.column("count_all").cast(pa.int64()),
            }
        )

    agg = (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["si", "prio"])
        .aggregate(Sum("n_p"))
        .take_all()
    )
    agg.sort(key=lambda r: (int(r["si"]), r["prio"]))
    return pa.table(
        {
            "c_mktsegment": pa.array(
                [segs[int(r["si"])] for r in agg], pa.string()
            ),
            "o_orderpriority": pa.array(
                [r["prio"] for r in agg], pa.string()
            ),
            "n": pa.array(
                [int(r["sum(n_p)"]) for r in agg], pa.int64()
            ),
        }
    )


def _q_tools_per_conv(sf_dir: str):
    """Conversations by distinct-tool count: shuffle-free per-file
    partials over the conv-complete enriched cache (per-conv distinct
    non-empty tools + turn count, all-vectorized via
    drop_duplicates/size), then the bounded histogram sum."""
    from ray.data.aggregate import Sum

    def per_group(tbl):
        import pandas as pd
        import pyarrow as pa
        import pyarrow.compute as pc

        df = pa.table(
            {
                "conv_id": tbl.column("conv_id"),
                "tool": pc.fill_null(tbl.column("tool"), ""),
            }
        ).to_pandas()
        n_turns = df.groupby("conv_id", sort=False).size()
        nz = df[df["tool"] != ""].drop_duplicates()
        n_tools = (
            nz.groupby("conv_id", sort=False)
            .size()
            .reindex(n_turns.index, fill_value=0)
        )
        g = pd.DataFrame({"n_turns": n_turns, "n_tools": n_tools})
        h = g.groupby("n_tools", sort=False).agg(
            n_convs=("n_turns", "size"),
            sum_turns=("n_turns", "sum"),
        )
        return pa.table(
            {
                "n_tools": pa.array(
                    h.index.to_numpy(dtype="int64"), pa.int64()
                ),
                "nc_p": pa.array(
                    h["n_convs"].to_numpy(dtype="int64"), pa.int64()
                ),
                "st_p": pa.array(
                    h["sum_turns"].to_numpy(dtype="int64"),
                    pa.int64(),
                ),
            }
        )

    return (
        _enriched_conv_partials(sf_dir, ["conv_id", "tool"], per_group)
        .groupby("n_tools")
        .aggregate(Sum("nc_p"), Sum("st_p"))
        .rename_columns(
            {"sum(nc_p)": "n_convs", "sum(st_p)": "sum_turns"}
        )
    )


def _q_role_runs(sf_dir: str):
    """Distribution of consecutive same-role run lengths across
    conversations (gaps-and-islands): shuffle-free per-file partials
    over the conv-complete enriched cache -- one lexsort + boundary
    diff per file, bounded (role, run_len) histogram."""
    from ray.data.aggregate import Sum

    def per_group(tbl):
        import numpy as np
        import pyarrow as pa

        df = tbl.select(["conv_id", "turn_idx", "role"]).to_pandas()
        df = df.sort_values(["conv_id", "turn_idx"])
        conv = df["conv_id"].to_numpy()
        role = df["role"].to_numpy()
        n = len(df)
        new_run = np.ones(n, bool)
        new_run[1:] = (conv[1:] != conv[:-1]) | (
            role[1:] != role[:-1]
        )
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.append(starts, n))
        run_roles = role[starts]
        import pandas as pd

        h = (
            pd.DataFrame({"role": run_roles, "run_len": lens})
            .groupby(["role", "run_len"], sort=False)
            .size()
        )
        idx = h.index
        return pa.table(
            {
                "role": pa.array(
                    idx.get_level_values(0).tolist(), pa.string()
                ),
                "run_len": pa.array(
                    idx.get_level_values(1).to_numpy(dtype="int64"),
                    pa.int64(),
                ),
                "n_p": pa.array(
                    h.to_numpy(dtype="int64"), pa.int64()
                ),
            }
        )

    return (
        _enriched_conv_partials(
            sf_dir, ["conv_id", "turn_idx", "role"], per_group
        )
        .groupby(["role", "run_len"])
        .aggregate(Sum("n_p"))
        .rename_columns({"sum(n_p)": "n_runs"})
    )


def _q_top_commands(sf_dir: str):
    """Top-20 most frequent commands over command-bearing turns:
    per-block count partials, bounded groupby, (n DESC, command ASC)
    cut."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = _enriched_cached(sf_dir, ["command"])

    def partial(b):
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("command")),
                pc.not_equal(b.column("command"), pa.scalar("")),
            )
        )
        g = (
            pa.table({"command": t.column("command")})
            .group_by("command")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "command": g.column("command"),
                "n_p": g.column("count_all").cast(pa.int64()),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("command")
        .aggregate(Sum("n_p"))
        .take_all()
    )
    rows.sort(key=lambda r: (-int(r["sum(n_p)"]), r["command"]))
    rows = rows[:20]
    return pa.table(
        {
            "command": pa.array(
                [r["command"] for r in rows], pa.string()
            ),
            "n": pa.array(
                [int(r["sum(n_p)"]) for r in rows], pa.int64()
            ),
        }
    )


def _q_vim_share(sf_dir: str):
    """Conversations by vim-time decile: per-conv exact integer
    decile (10 * n_vim) // n_turns via shuffle-free per-file partials
    over the conv-complete enriched cache, bounded histogram."""
    from ray.data.aggregate import Sum

    def per_group(tbl):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        df = pa.table(
            {
                "conv_id": tbl.column("conv_id"),
                "v": pc.cast(tbl.column("in_vim"), pa.int64()),
            }
        ).to_pandas()
        g = df.groupby("conv_id", sort=False).agg(
            n=("v", "size"), nv=("v", "sum")
        )
        dec = (10 * g["nv"].to_numpy(dtype="int64")) // g[
            "n"
        ].to_numpy(dtype="int64")
        vals, cnt = np.unique(dec, return_counts=True)
        return pa.table(
            {
                "decile": pa.array(vals, pa.int64()),
                "nc_p": pa.array(cnt.astype("int64"), pa.int64()),
            }
        )

    return (
        _enriched_conv_partials(sf_dir, ["conv_id", "in_vim"], per_group)
        .groupby("decile")
        .aggregate(Sum("nc_p"))
        .rename_columns({"sum(nc_p)": "n_convs"})
    )


def _q_turnlen_by_role(sf_dir: str):
    """Clean-text length quantiles per role: the exact
    group_quantiles_hist operator over the cached parse output:
    lengths are discrete, so the exact quantile comes from the tiny
    (role, len) histogram -- no role-keyed row shuffle."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from console_log_parser_ray.stages.events import group_quantiles_hist

    # enriched preserves every parse column; read only (role, clean_text)
    ds = _enriched_cached(sf_dir, ["role", "clean_text"])

    def project(b):
        return pa.table(
            {
                "role": b.column("role"),
                "len": pc.utf8_length(
                    pc.fill_null(b.column("clean_text"), "")
                ).cast(pa.int64()),
            }
        )

    return group_quantiles_hist(
        ds.map_batches(project, batch_format="pyarrow"),
        "role",
        "len",
        qs=(0.5, 0.95),
    )


def _q_priority_trend(sf_dir: str):
    """Order volume per (priority, 91-day epoch bucket): bounded
    two-key count fold in pure integer arithmetic."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderpriority", "o_orderdate"],
    )
    mn = orders.min("o_orderdate")
    from console_log_parser_ray.stages.events import _ts_scalar_us

    mn_us = _ts_scalar_us(mn)
    Q = 91 * 86_400_000_000

    def partial(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("o_orderpriority")),
                pc.is_valid(b.column("o_orderdate")),
            )
        )
        qb = pc.divide(
            pc.subtract(
                t.column("o_orderdate").cast(pa.int64()),
                pa.scalar(mn_us, pa.int64()),
            ),
            pa.scalar(Q, pa.int64()),
        )
        g = (
            pa.table(
                {
                    "o_orderpriority": t.column("o_orderpriority"),
                    "qbucket": qb,
                }
            )
            .group_by(["o_orderpriority", "qbucket"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "o_orderpriority": g.column("o_orderpriority"),
                "qbucket": g.column("qbucket"),
                "n_p": g.column("count_all").cast(pa.int64()),
            }
        )

    return (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["o_orderpriority", "qbucket"])
        .aggregate(Sum("n_p"))
        .rename_columns({"sum(n_p)": "n"})
    )


def _q_ship_delay_hist(sf_dir: str):
    """Order-to-ship delay histogram in whole days: size-adaptive
    join + bounded day-bucket count fold."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.stages.relational import lookup_join

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate"],
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate"],
    )
    j = lookup_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        how="inner",
    )

    def partial(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("l_shipdate")),
                pc.is_valid(b.column("o_orderdate")),
            )
        )
        d = pc.divide(
            pc.subtract(
                t.column("l_shipdate").cast(pa.int64()),
                t.column("o_orderdate").cast(pa.int64()),
            ),
            pa.scalar(86_400_000_000, pa.int64()),
        )
        g = (
            pa.table({"delay_days": d})
            .group_by("delay_days")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "delay_days": g.column("delay_days"),
                "n_p": g.column("count_all").cast(pa.int64()),
            }
        )

    return (
        j.map_batches(partial, batch_format="pyarrow")
        .groupby("delay_days")
        .aggregate(Sum("n_p"))
        .rename_columns({"sum(n_p)": "n_items"})
    )


def _q_peak_3h_rate(sf_dir: str):
    """Peak sustained load per event type: the maximum 3-consecutive-
    hour event count (sliding over hourly buckets anchored at the
    corpus start), ties to the earliest window -- bounded (type,
    hour) fold + a keys x hours driver scan."""
    import numpy as np
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from console_log_parser_ray.stages.events import _ts_scalar_us

    ds = _events(sf_dir).select_columns(["event_type", "ts"])
    mn_us = _ts_scalar_us(ds.min("ts"))
    H = 3_600_000_000

    def partial(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("ts")),
                pc.is_valid(b.column("event_type")),
            )
        )
        hb = pc.divide(
            pc.subtract(
                t.column("ts").cast(pa.int64()),
                pa.scalar(mn_us, pa.int64()),
            ),
            pa.scalar(H, pa.int64()),
        )
        g = (
            pa.table({"k": t.column("event_type"), "h": hb})
            .group_by(["k", "h"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "k": g.column("k"),
                "h": g.column("h"),
                "n_p": g.column("count_all").cast(pa.int64()),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["k", "h"])
        .aggregate(Sum("n_p"))
        .take_all()
    )  # <= types x hours rows
    per: dict = {}
    for r in rows:
        per.setdefault(r["k"], {})[int(r["h"])] = int(r["sum(n_p)"])
    out_k, out_h, out_n = [], [], []
    for k in sorted(per):
        h = per[k]
        # candidate window starts: any start in [hh-2, hh] for an
        # occupied hour hh covers every nonzero window
        cands = sorted(
            {s for hh in h for s in (hh - 2, hh - 1, hh) if s >= 0}
        )
        best = None
        for s in cands:
            tot = h.get(s, 0) + h.get(s + 1, 0) + h.get(s + 2, 0)
            if best is None or tot > best[0]:
                best = (tot, s)
        out_k.append(k)
        out_h.append(best[1])
        out_n.append(best[0])
    return pa.table(
        {
            "event_type": pa.array(out_k, pa.string()),
            "window_start_hour": pa.array(out_h, pa.int64()),
            "peak_3h_events": pa.array(out_n, pa.int64()),
        }
    )


def _q_fast_orders(sf_dir: str):
    """Fill-rate by priority: orders whose SLOWEST line item shipped
    within 30 days, over all orders with line items -- join, per-
    order max delay, threshold, bounded priority rollup."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Max, Sum

    from console_log_parser_ray.stages.relational import lookup_join

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate"],
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    j = lookup_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        how="inner",
    )

    def partial(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("l_shipdate")),
                pc.is_valid(b.column("o_orderdate")),
            )
        )
        d = pc.divide(
            pc.subtract(
                t.column("l_shipdate").cast(pa.int64()),
                t.column("o_orderdate").cast(pa.int64()),
            ),
            pa.scalar(86_400_000_000, pa.int64()),
        )
        g = (
            pa.table(
                {
                    "o": t.column("l_orderkey").cast(pa.int64()),
                    "prio": t.column("o_orderpriority"),
                    "d": d,
                }
            )
            .group_by(["o", "prio"])
            .aggregate([("d", "max")])
        )
        return g.rename_columns(["o", "prio", "d_p"])

    def rollup(b):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        fast = pc.cast(
            pc.less_equal(
                b.column("max(d_p)").cast(pa.int64()),
                pa.scalar(30, pa.int64()),
            ),
            pa.int64(),
        )
        g = (
            pa.table(
                {
                    "prio": b.column("prio"),
                    "one": pa.array(
                        np.ones(b.num_rows, np.int64), pa.int64()
                    ),
                    "fast": fast,
                }
            )
            .group_by("prio")
            .aggregate([("one", "sum"), ("fast", "sum")])
        )
        return g.rename_columns(["prio", "n_p", "f_p"])

    agg = (
        j.map_batches(partial, batch_format="pyarrow")
        .groupby(["o", "prio"])
        .aggregate(Max("d_p"))
        .map_batches(rollup, batch_format="pyarrow")
        .groupby("prio")
        .aggregate(Sum("n_p"), Sum("f_p"))
        .take_all()
    )
    agg.sort(key=lambda r: r["prio"])
    return pa.table(
        {
            "o_orderpriority": pa.array(
                [r["prio"] for r in agg], pa.string()
            ),
            "n_orders": pa.array(
                [int(r["sum(n_p)"]) for r in agg], pa.int64()
            ),
            "n_fast": pa.array(
                [int(r["sum(f_p)"]) for r in agg], pa.int64()
            ),
            "fast_share": pa.array(
                [
                    float(int(r["sum(f_p)"]))
                    / float(int(r["sum(n_p)"]))
                    for r in agg
                ],
                pa.float64(),
            ),
        }
    )


def _q_peak_revenue_day(sf_dir: str):
    """Biggest revenue day: exact cent-hundredth revenue per epoch
    day of ship date, argmax with earliest-day tie-break."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_shipdate", "l_extendedprice", "l_discount"],
    )

    def partial(b):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        t = b.filter(
            pc.and_(
                pc.and_(
                    pc.is_valid(b.column("l_shipdate")),
                    pc.is_valid(b.column("l_extendedprice")),
                ),
                pc.is_valid(b.column("l_discount")),
            )
        )
        day = pc.divide(
            t.column("l_shipdate").cast(pa.int64()),
            pa.scalar(86_400_000_000, pa.int64()),
        )
        cents = pc.cast(
            pc.round(
                pc.multiply(
                    t.column("l_extendedprice").cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        disc = pc.cast(
            pc.round(
                pc.multiply(
                    t.column("l_discount").cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        rev = cents * (100 - disc)
        g = (
            pa.table(
                {"day": day, "rev": pa.array(rev, pa.int64())}
            )
            .group_by("day")
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["day", "r_p"])

    rows = (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("r_p"))
        .take_all()
    )  # <= distinct ship days
    best = max(
        rows, key=lambda r: (int(r["sum(r_p)"]), -int(r["day"]))
    )
    return pa.table(
        {
            "epoch_day": pa.array([int(best["day"])], pa.int64()),
            "revenue_milli": pa.array(
                [int(best["sum(r_p)"])], pa.int64()
            ),
        }
    )


def _q_dup_rate_by_source(sf_dir: str):
    """Exact-duplicate share per source: texts hash into buckets (all
    copies of a text land in one group), per-bucket text counts mark
    duplicates, per-source partials fold -- the curation readout
    "which source is pasting the same documents"."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from console_log_parser_ray.sources.cache import map_keyed

    ds = _docs(sf_dir).select_columns(["source", "text"])

    def project(b):
        return pa.table(
            {
                "source": pc.fill_null(
                    b.column("source").combine_chunks(), ""
                ),
                "text": pc.fill_null(
                    b.column("text").combine_chunks(), ""
                ),
            }
        )

    def per_bucket(tbl):
        import pandas as pd
        import pyarrow as pa

        df = tbl.select(["source", "text"]).to_pandas()
        counts = df.groupby("text", sort=False)["text"].transform(
            "size"
        )
        df["dup"] = (counts >= 2).astype("int64")
        g = df.groupby("source", sort=False).agg(
            n_p=("dup", "size"), d_p=("dup", "sum")
        )
        return pa.table(
            {
                "source": pa.array(g.index.tolist(), pa.string()),
                "n_p": pa.array(
                    g["n_p"].to_numpy(dtype="int64"), pa.int64()
                ),
                "d_p": pa.array(
                    g["d_p"].to_numpy(dtype="int64"), pa.int64()
                ),
            }
        )

    agg = (
        map_keyed(
            ds.map_batches(project, batch_format="pyarrow"),
            per_bucket,
            key="text",
            n_buckets=64,
        )
        .groupby("source")
        .aggregate(Sum("n_p"), Sum("d_p"))
        .take_all()
    )
    agg.sort(key=lambda r: r["source"])
    return pa.table(
        {
            "source": pa.array(
                [r["source"] for r in agg], pa.string()
            ),
            "n_docs": pa.array(
                [int(r["sum(n_p)"]) for r in agg], pa.int64()
            ),
            "n_dup_docs": pa.array(
                [int(r["sum(d_p)"]) for r in agg], pa.int64()
            ),
            "dup_share": pa.array(
                [
                    float(int(r["sum(d_p)"]))
                    / float(int(r["sum(n_p)"]))
                    for r in agg
                ],
                pa.float64(),
            ),
        }
    )


def _q_nonascii_by_source(sf_dir: str):
    """Non-ASCII character share per source: exact codepoint counts
    via one RE2 kernel per batch."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir).select_columns(["source", "text"])

    def partial(b):
        src_col = pc.fill_null(
            b.column("source").combine_chunks(), ""
        )
        txt = pc.fill_null(b.column("text").combine_chunks(), "")
        total = pc.utf8_length(txt).cast(pa.int64())
        non = pc.count_substring_regex(
            txt, "[^\x00-\x7F]"
        ).cast(pa.int64())
        g = (
            pa.table(
                {"source": src_col, "t": total, "na": non}
            )
            .group_by("source")
            .aggregate([("t", "sum"), ("na", "sum")])
        )
        return g.rename_columns(["source", "t_p", "na_p"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("t_p"), Sum("na_p"))
        .take_all()
    )
    agg.sort(key=lambda r: r["source"])
    return pa.table(
        {
            "source": pa.array(
                [r["source"] for r in agg], pa.string()
            ),
            "n_chars": pa.array(
                [int(r["sum(t_p)"]) for r in agg], pa.int64()
            ),
            "n_nonascii": pa.array(
                [int(r["sum(na_p)"]) for r in agg], pa.int64()
            ),
            "nonascii_share": pa.array(
                [
                    float(int(r["sum(na_p)"]))
                    / float(int(r["sum(t_p)"]))
                    if int(r["sum(t_p)"])
                    else None
                    for r in agg
                ],
                pa.float64(),
            ),
        }
    )


def _q_sentences_by_lang(sf_dir: str):
    """Mean words-per-sentence by language: the readability counting
    conventions rolled up per lang -- exact integer sums, one float
    mean."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir).select_columns(["lang", "text"])

    def partial(b):
        lang = pc.fill_null(b.column("lang").combine_chunks(), "")
        txt = pc.fill_null(b.column("text").combine_chunks(), "")
        words = pc.count_substring_regex(txt, "\\S+").cast(
            pa.int64()
        )
        sents = pc.max_element_wise(
            pc.count_substring_regex(txt, "[.!?]+").cast(pa.int64()),
            pa.scalar(1, pa.int64()),
        )
        g = (
            pa.table({"lang": lang, "w": words, "s": sents})
            .group_by("lang")
            .aggregate([("w", "sum"), ("s", "sum")])
        )
        return g.rename_columns(["lang", "w_p", "s_p"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("w_p"), Sum("s_p"))
        .take_all()
    )
    agg.sort(key=lambda r: r["lang"])
    return pa.table(
        {
            "lang": pa.array([r["lang"] for r in agg], pa.string()),
            "n_words": pa.array(
                [int(r["sum(w_p)"]) for r in agg], pa.int64()
            ),
            "n_sentences": pa.array(
                [int(r["sum(s_p)"]) for r in agg], pa.int64()
            ),
            "words_per_sentence": pa.array(
                [
                    float(int(r["sum(w_p)"]))
                    / float(int(r["sum(s_p)"]))
                    for r in agg
                ],
                pa.float64(),
            ),
        }
    )


def _q_turn_gap_by_role(sf_dir: str):
    """Whole-second gaps between consecutive turns within a
    conversation, p50/p95 per the LATER turn's role: shuffle-free
    per-file (role, gap) histogram partials over the conv-complete
    enriched cache, then exact percentile_disc from the bounded
    histogram (group_quantiles_hist counts_col path)."""
    from console_log_parser_ray.stages.events import group_quantiles_hist

    def per_group(tbl):
        import numpy as np
        import pyarrow as pa

        t = tbl.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        ts = (
            t.column("ts")
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        role = t.column("role").to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                "role": pa.array([], pa.string()),
                "gap": pa.array([], pa.int64()),
                "n_p": pa.array([], pa.int64()),
            }
        )
        if len(conv) < 2:
            return empty
        same = conv[1:] == conv[:-1]
        gaps = (ts[1:] - ts[:-1])[same] // 1_000_000
        roles = role[1:][same]
        if len(gaps) == 0:
            return empty
        g = (
            pa.table(
                {
                    "role": pa.array(roles, pa.string()),
                    "gap": pa.array(gaps, pa.int64()),
                }
            )
            .group_by(["role", "gap"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "role": g.column("role"),
                "gap": g.column("gap"),
                "n_p": g.column("count_all").cast(pa.int64()),
            }
        )

    partials = _enriched_conv_partials(
        sf_dir, ["conv_id", "turn_idx", "ts", "role"], per_group
    )
    return group_quantiles_hist(
        partials, "role", "gap", qs=(0.5, 0.95), counts_col="n_p"
    )


def _q_conv_duration_hist(sf_dir: str):
    """Conversations by whole-minute duration (last ts - first ts):
    shuffle-free per-file partials over the conv-complete enriched
    cache, bounded histogram."""
    from ray.data.aggregate import Sum

    def per_group(tbl):
        import numpy as np
        import pyarrow as pa

        df = pa.table(
            {
                "conv_id": tbl.column("conv_id"),
                "t": tbl.column("ts").cast(pa.int64()),
            }
        ).to_pandas()
        g = df.groupby("conv_id", sort=False)["t"].agg(["min", "max"])
        dur = (
            g["max"].to_numpy(dtype="int64")
            - g["min"].to_numpy(dtype="int64")
        ) // 60_000_000
        vals, cnt = np.unique(dur, return_counts=True)
        return pa.table(
            {
                "dur_min": pa.array(vals, pa.int64()),
                "nc_p": pa.array(cnt.astype("int64"), pa.int64()),
            }
        )

    return (
        _enriched_conv_partials(sf_dir, ["conv_id", "ts"], per_group)
        .groupby("dur_min")
        .aggregate(Sum("nc_p"))
        .rename_columns({"sum(nc_p)": "n_convs"})
    )


def _q_hapax(sf_dir: str):
    """Hapax-legomena share per source (stages/textan.hapax_by_source):
    token-hash bucket partials, exact ints, one float ratio."""
    from console_log_parser_ray.stages.textan import hapax_by_source

    return hapax_by_source(_docs(sf_dir, ["source", "text"]))


def _q_zipf_slope(sf_dir: str):
    """Zipf-law OLS fit over the exact top-1000 token frequencies
    (stages/textan.zipf_slope) -- micro-nat-quantized lns, exact
    integer sufficient statistics, bounded driver finish."""
    from console_log_parser_ray.stages.textan import zipf_slope

    return zipf_slope(_docs(sf_dir, ["text"]), k=1000)


def _q_brand_supplier_breadth(sf_dir: str):
    """Sourcing breadth per brand: distinct parts and distinct
    suppliers observed in lineitem, by the part's brand.  Distinct
    (partkey, suppkey) / (partkey) folds via the bucketed any-wins
    distinct (shuffle moves one row per pair per block), brand
    resolved by broadcast fk_searchsorted, bounded driver merge."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from console_log_parser_ray.stages.dedup import (
        _cached_get,
        distinct_rows,
    )
    from console_log_parser_ray.stages.relational import fk_searchsorted

    t = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand"],
    )
    pk = np.asarray(t.column("p_partkey").to_pylist(), np.int64)
    br = np.asarray(t.column("p_brand").to_pylist())
    order = np.argsort(pk)
    pk, br = pk[order], br[order]
    brands = sorted(set(br.tolist()))
    bid = {b: i for i, b in enumerate(brands)}
    bidx = np.array([bid[b] for b in br], np.int64)
    ref = ray.put((pk, bidx))

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey"],
    )

    def tagged_pairs(b, _r=ref):
        import numpy as np
        import pyarrow as pa

        p_k, b_i = _cached_get(_r)
        part = b.column("l_partkey").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        supp = b.column("l_suppkey").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        bi = b_i[
            fk_searchsorted(p_k, part, "brand_supplier_breadth fk")
        ]
        # ONE tagged stream carries both distinct targets (brand,
        # supplier) and (brand, part): one read, one distinct shuffle
        n = len(bi)
        t = pa.table(
            {
                "tag": pa.array(
                    np.concatenate(
                        [np.zeros(n, np.int8), np.ones(n, np.int8)]
                    )
                ),
                "bi": pa.array(
                    np.concatenate([bi, bi]), pa.int64()
                ),
                "key": pa.array(
                    np.concatenate([supp, part]), pa.int64()
                ),
            }
        )
        return t  # distinct_rows pre-dedups in-batch before shuffling

    agg = (
        distinct_rows(
            li.map_batches(tagged_pairs, batch_format="pyarrow"),
            ["tag", "bi", "key"],
        )
        .groupby(["tag", "bi"])
        .count()
        .take_all()
    )
    n_sup = {
        int(r["bi"]): int(r["count()"]) for r in agg if r["tag"] == 0
    }
    n_par = {
        int(r["bi"]): int(r["count()"]) for r in agg if r["tag"] == 1
    }
    keys = sorted(set(n_sup) | set(n_par))
    return pa.table(
        {
            "p_brand": pa.array([brands[i] for i in keys], pa.string()),
            "n_parts": pa.array(
                [n_par.get(i, 0) for i in keys], pa.int64()
            ),
            "n_suppliers": pa.array(
                [n_sup.get(i, 0) for i in keys], pa.int64()
            ),
        }
    )


def _q_blamed_suppliers(sf_dir: str):
    """TPC-H q21-shaped blame report on this schema's lateness rule
    (ship > order date + 60d, as q4): suppliers SOLELY responsible
    for a late multi-supplier order, top-20 by count.  One
    orderkey-hash bucket fold of per-block (order, supplier,
    any-late) partials -- shuffle volume is distinct pairs, never
    lines; supplier names resolve via one broadcast."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.sources.cache import map_keyed
    from console_log_parser_ray.stages.dedup import _cached_get
    from console_log_parser_ray.stages.relational import (
        fk_searchsorted,
        lookup_join,
    )

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate"],
    )
    j = lookup_join(
        li, orders, on="l_orderkey", right_on="o_orderkey", how="inner"
    )
    LATE_US = 60 * 86_400_000_000

    def pair_partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        late = pc.cast(
            pc.greater(
                b.column("l_shipdate").cast(pa.int64()),
                pc.add(
                    b.column("o_orderdate").cast(pa.int64()),
                    pa.scalar(LATE_US, pa.int64()),
                ),
            ),
            pa.int64(),
        )
        g = (
            pa.table(
                {
                    "o": b.column("l_orderkey").cast(pa.int64()),
                    "s": b.column("l_suppkey").cast(pa.int64()),
                    "late": late,
                }
            )
            .group_by(["o", "s"])
            .aggregate([("late", "max")])
        )
        return pa.table(
            {
                "o": g.column("o"),
                "s": g.column("s"),
                "late_p": g.column("late_max").cast(pa.int64()),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        df = (
            tbl.select(["o", "s", "late_p"])
            .to_pandas()
            .groupby(["o", "s"], sort=False)["late_p"]
            .max()
            .reset_index()
        )
        g = df.groupby("o", sort=False)["late_p"].agg(
            n_supp="size", n_late="sum"
        )
        blame_orders = g[(g["n_supp"] >= 2) & (g["n_late"] == 1)].index
        blamed = df[
            df["o"].isin(blame_orders) & (df["late_p"] == 1)
        ]
        c = blamed.groupby("s", sort=False).size()
        return pa.table(
            {
                "s": pa.array(
                    c.index.to_numpy(dtype="int64"), pa.int64()
                ),
                "n_p": pa.array(
                    c.to_numpy(dtype="int64"), pa.int64()
                ),
            }
        )

    rows = (
        map_keyed(
            j.map_batches(pair_partial, batch_format="pyarrow"),
            per_bucket,
            key="o",
            n_buckets=64,
        )
        .groupby("s")
        .aggregate(Sum("n_p"))
        .take_all()
    )  # bounded by supplier count
    t = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name"],
    )
    sk = np.asarray(t.column("s_suppkey").to_pylist(), np.int64)
    sn = np.asarray(t.column("s_name").to_pylist())
    order = np.argsort(sk)
    sk, sn = sk[order], sn[order]
    per_name: dict = {}
    for r in rows:
        name = str(
            sn[
                int(
                    fk_searchsorted(
                        sk,
                        np.array([int(r["s"])], np.int64),
                        "blamed_suppliers fk",
                    )[0]
                )
            ]
        )
        per_name[name] = per_name.get(name, 0) + int(r["sum(n_p)"])
    top = sorted(per_name.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    return pa.table(
        {
            "s_name": pa.array([k for k, _ in top], pa.string()),
            "numwait": pa.array([v for _, v in top], pa.int64()),
        }
    )


def _q_role_pattern_topk(sf_dir: str):
    """Top-10 conversation openings: the role-initial string of each
    conversation's first 12 turns, counted corpus-wide -- shuffle-free
    per-file pattern-histogram partials over the conv-complete
    enriched cache, bounded driver cut."""
    from ray.data.aggregate import Sum

    def per_group(tbl):
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import pyarrow.compute as pc

        t = tbl.filter(
            pc.less(tbl.column("turn_idx"), pa.scalar(12))
        ).sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
        empty = pa.table(
            {
                "pat": pa.array([], pa.string()),
                "n_p": pa.array([], pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        df = pd.DataFrame(
            {
                "conv_id": t.column("conv_id").to_numpy(
                    zero_copy_only=False
                ),
                "ini": [
                    r[:1]
                    for r in t.column("role").to_pylist()
                ],
            }
        )
        pats = df.groupby("conv_id", sort=False)["ini"].agg("".join)
        c = pats.groupby(pats, sort=False).size()
        return pa.table(
            {
                "pat": pa.array(c.index.tolist(), pa.string()),
                "n_p": pa.array(c.to_numpy(dtype="int64"), pa.int64()),
            }
        )

    rows = (
        _enriched_conv_partials(
            sf_dir, ["conv_id", "turn_idx", "role"], per_group
        )
        .groupby("pat")
        .aggregate(Sum("n_p"))
        .take_all()
    )  # bounded by distinct opening patterns
    rows.sort(key=lambda r: (-int(r["sum(n_p)"]), r["pat"]))
    rows = rows[:10]
    import pyarrow as pa

    return pa.table(
        {
            "pat": pa.array([r["pat"] for r in rows], pa.string()),
            "n_convs": pa.array(
                [int(r["sum(n_p)"]) for r in rows], pa.int64()
            ),
        }
    )


def _q_wau_weekly(sf_dir: str):
    """Weekly active users: exact distinct users per 7-day epoch
    bucket from the corpus start -- (week, user) distinct fold via the
    bucketed any-wins distinct, bounded week histogram."""
    import pyarrow as pa
    from ray.data.aggregate import Count

    from console_log_parser_ray.stages.dedup import distinct_rows
    from console_log_parser_ray.stages.events import _ts_scalar_us

    ev = _events(sf_dir, ["ts", "user_id"])
    mn_us = _ts_scalar_us(ev.min("ts"))
    WEEK = 7 * 86_400_000_000

    def project(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("ts")),
                pc.is_valid(b.column("user_id")),
            )
        )
        wk = pc.divide(
            pc.subtract(
                t.column("ts").cast(pa.int64()),
                pa.scalar(mn_us, pa.int64()),
            ),
            pa.scalar(WEEK, pa.int64()),
        )
        return pa.table(
            {
                "week": wk,
                "user_id": t.column("user_id").cast(pa.int64()),
            }
        )

    def finish(b: pa.Table) -> pa.Table:
        # explicit arrow projection (rename_columns' Project chokes on
        # the pandas-format blocks distinct_rows emits)
        return pa.table(
            {
                "week": b.column("week").cast(pa.int64()),
                "n_users": b.column("count()").cast(pa.int64()),
            }
        )

    return (
        distinct_rows(
            ev.map_batches(project, batch_format="pyarrow"),
            ["week", "user_id"],
        )
        .groupby("week")
        .count()
        .map_batches(finish, batch_format="pyarrow")
    )


def _q_lang_confusion(sf_dir: str):
    """Language-ID confusion matrix: generator ground-truth lang vs
    the engine's stopword-argmax prediction, counted per (lang,
    lang_pred) cell -- the eval readout for the lang_id heuristic.
    One stateless map pass + a bounded two-key groupby."""
    from ray.data.aggregate import Count

    from console_log_parser_ray.stages.textan import lang_id

    return (
        lang_id(_docs(sf_dir, ["doc_id", "lang", "text"]))
        .groupby(["lang", "lang_pred"])
        .count()
        .rename_columns({"count()": "n"})
    )


def _confusion_cells(sf_dir: str):
    """Driver-folded (lang, lang_pred, n) confusion cells -- the
    shared reduction behind the langid evaluation family (bounded by
    |langs|^2)."""
    rows = _q_lang_confusion(sf_dir).take_all()
    return [
        (r["lang"], r["lang_pred"], int(r["n"])) for r in rows
    ]


def _q_langid_kappa(sf_dir: str):
    """Cohen's kappa of the language-ID heuristic vs generator
    ground truth: chance-corrected agreement from the exact
    confusion-matrix counts, one float division of exact integers --
    the eval scalar accuracy alone overstates under class
    imbalance."""
    import pyarrow as pa

    cells = _confusion_cells(sf_dir)
    n = sum(c for _, _, c in cells)
    agree = sum(c for a, b, c in cells if a == b)
    row: dict = {}
    col: dict = {}
    for a, b, c in cells:
        row[a] = row.get(a, 0) + c
        col[b] = col.get(b, 0) + c
    pe_num = sum(
        row[k] * col[k] for k in set(row) & set(col)
    )
    den = n * n - pe_num
    kappa = (
        float(agree * n - pe_num) / float(den) if den != 0 else None
    )
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "agree": pa.array([agree], pa.int64()),
            "pe_num": pa.array([float(pe_num)], pa.float64()),
            "kappa": pa.array([kappa], pa.float64()),
        }
    )


def _q_langid_prf(sf_dir: str):
    """Per-language precision / recall / F1 of the language-ID
    heuristic from the exact confusion counts (single float
    expressions per class; F1 = 2*p*r/(p+r), NULL when
    undefined)."""
    import pyarrow as pa

    cells = _confusion_cells(sf_dir)
    diag: dict = {}
    row: dict = {}
    col: dict = {}
    for a, b, c in cells:
        row[a] = row.get(a, 0) + c
        col[b] = col.get(b, 0) + c
        if a == b:
            diag[a] = diag.get(a, 0) + c
    langs = sorted(set(row) | set(col))
    out_l, out_tp, out_row, out_col, out_p, out_r, out_f = (
        [], [], [], [], [], [], [],
    )
    for lg in langs:
        tp = diag.get(lg, 0)
        rc = row.get(lg, 0)
        cc = col.get(lg, 0)
        p = float(tp) / float(cc) if cc > 0 else None
        r = float(tp) / float(rc) if rc > 0 else None
        f = (
            2.0 * p * r / (p + r)
            if p is not None and r is not None and (p + r) > 0.0
            else None
        )
        out_l.append(lg)
        out_tp.append(tp)
        out_row.append(rc)
        out_col.append(cc)
        out_p.append(p)
        out_r.append(r)
        out_f.append(f)
    return pa.table(
        {
            "lang": pa.array(out_l, pa.string()),
            "tp": pa.array(out_tp, pa.int64()),
            "n_true": pa.array(out_row, pa.int64()),
            "n_pred": pa.array(out_col, pa.int64()),
            "precision": pa.array(out_p, pa.float64()),
            "recall": pa.array(out_r, pa.float64()),
            "f1": pa.array(out_f, pa.float64()),
        }
    )


def _q_stickiness(sf_dir: str):
    """Product stickiness (avg DAU / avg WAU): exact distinct
    (day, user) and (week, user) folds through ONE tagged any-wins
    distinct (the brand_supplier_breadth shape), bounded per-bucket
    histograms, one-row float finish."""
    import pyarrow as pa

    from console_log_parser_ray.stages.dedup import distinct_rows
    from console_log_parser_ray.stages.events import _ts_scalar_us

    ev = _events(sf_dir, ["ts", "user_id"])
    mn_us = _ts_scalar_us(ev.min("ts"))
    DAY = 86_400_000_000

    def project(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("ts")),
                pc.is_valid(b.column("user_id")),
            )
        )
        day = (
            t.column("ts").cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            - mn_us
        ) // DAY
        u = t.column("user_id").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        n = len(u)
        return pa.table(
            {
                "tag": pa.array(
                    np.concatenate(
                        [np.zeros(n, np.int8), np.ones(n, np.int8)]
                    )
                ),
                "bucket": pa.array(
                    np.concatenate([day, day // 7]), pa.int64()
                ),
                "user_id": pa.array(
                    np.concatenate([u, u]), pa.int64()
                ),
            }
        )

    rows = (
        distinct_rows(
            ev.map_batches(project, batch_format="pyarrow"),
            ["tag", "bucket", "user_id"],
        )
        .groupby(["tag", "bucket"])
        .count()
        .take_all()
    )  # bounded by calendar span x 2
    d_tot = d_n = w_tot = w_n = 0
    for r in rows:
        if int(r["tag"]) == 0:
            d_tot += int(r["count()"])
            d_n += 1
        else:
            w_tot += int(r["count()"])
            w_n += 1
    avg_dau = float(d_tot) / float(d_n)
    avg_wau = float(w_tot) / float(w_n)
    return pa.table(
        {
            "n_days": pa.array([d_n], pa.int64()),
            "n_weeks": pa.array([w_n], pa.int64()),
            "avg_dau": pa.array([avg_dau], pa.float64()),
            "avg_wau": pa.array([avg_wau], pa.float64()),
            "stickiness": pa.array(
                [avg_dau / avg_wau], pa.float64()
            ),
        }
    )


def _q_order_value_deciles(sf_dir: str):
    """Exact decile boundaries of order value (percentile_disc at
    0.1..0.9 over integer cents): the bounded-histogram quantile path
    (group_quantiles_hist, constant group) -- shuffle volume =
    distinct cent values."""
    import pyarrow as pa
    import ray.data

    from console_log_parser_ray.stages.events import group_quantiles_hist

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_totalprice"],
    )

    def project(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = b.filter(pc.is_valid(b.column("o_totalprice")))
        cents = pc.cast(
            pc.round(
                pc.multiply(
                    t.column("o_totalprice").cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "g": pa.nulls(len(cents), pa.string()).fill_null("all"),
                "cents": cents,
            }
        )

    return group_quantiles_hist(
        orders.map_batches(project, batch_format="pyarrow"),
        "g",
        "cents",
        qs=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    )


def _q_pii_by_source(sf_dir: str):
    """PII incidence per source: exact email / dotted-quad match
    counts over documents (the audit sibling of the redact
    transform).  One vectorized RE2 kernel per pattern per batch,
    bounded per-source fold; pyarrow and DuckDB both run RE2, so the
    SQL mirror is the same regex engine."""
    import pyarrow as pa
    from ray.data.aggregate import Sum

    docs = _docs(sf_dir, ["source", "text"])

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = pc.fill_null(b.column("text").combine_chunks(), "")
        src = pc.fill_null(b.column("source").combine_chunks(), "")
        emails = pc.count_substring_regex(
            text,
            r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
        ).cast(pa.int64())
        ips = pc.count_substring_regex(
            text,
            r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b",
        ).cast(pa.int64())
        g = (
            pa.table(
                {
                    "source": src,
                    "one": pa.array([1] * len(src), pa.int64()),
                    "em": emails,
                    "ip": ips,
                }
            )
            .group_by("source")
            .aggregate([("one", "sum"), ("em", "sum"), ("ip", "sum")])
        )
        return g.rename_columns(["source", "nd_p", "em_p", "ip_p"])

    res = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("nd_p"), Sum("em_p"), Sum("ip_p"))
        .take_all()
    )  # bounded by source count
    res.sort(key=lambda r: r["source"])
    import pyarrow as pa

    return pa.table(
        {
            "source": pa.array(
                [r["source"] for r in res], pa.string()
            ),
            "n_docs": pa.array(
                [int(r["sum(nd_p)"]) for r in res], pa.int64()
            ),
            "n_emails": pa.array(
                [int(r["sum(em_p)"]) for r in res], pa.int64()
            ),
            "n_ips": pa.array(
                [int(r["sum(ip_p)"]) for r in res], pa.int64()
            ),
            "pii_per_doc": pa.array(
                [
                    float(int(r["sum(em_p)"]) + int(r["sum(ip_p)"]))
                    / float(int(r["sum(nd_p)"]))
                    for r in res
                ],
                pa.float64(),
            ),
        }
    )


def _q_sessions_per_user_hist(sf_dir: str):
    """Sessions-per-user histogram (30-min gap rule, as sessionize):
    user-hash bucket fold -- one lexsort + boundary scan per bucket
    resolves every user's session count vectorized, emitting bounded
    (n_sessions, n_users) partials."""
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from console_log_parser_ray.sources.cache import map_keyed

    ev = _events(sf_dir, ["user_id", "ts"])
    GAP = 30 * 60 * 1_000_000

    def project(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = b.filter(
            pc.and_(
                pc.is_valid(b.column("user_id")),
                pc.is_valid(b.column("ts")),
            )
        )
        u = t.column("user_id").cast(pa.int64())
        return pa.table(
            {
                "u": u,
                "t": t.column("ts").cast(pa.int64()),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        u = tbl.column("u").to_numpy(zero_copy_only=False)
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        order = np.lexsort((t, u))
        u, t = u[order], t[order]
        n = len(u)
        if n == 0:
            return pa.table(
                {
                    "n_sessions": pa.array([], pa.int64()),
                    "nu_p": pa.array([], pa.int64()),
                }
            )
        new_s = np.ones(n, bool)
        new_s[1:] = (u[1:] != u[:-1]) | ((t[1:] - t[:-1]) > GAP)
        uniq, inv = np.unique(u, return_inverse=True)
        per_user = np.zeros(len(uniq), np.int64)
        np.add.at(per_user, inv, new_s.astype(np.int64))
        vals, cnt = np.unique(per_user, return_counts=True)
        return pa.table(
            {
                "n_sessions": pa.array(vals, pa.int64()),
                "nu_p": pa.array(cnt.astype("int64"), pa.int64()),
            }
        )

    return (
        map_keyed(
            ev.map_batches(project, batch_format="pyarrow"),
            per_bucket,
            key="u",
            n_buckets=64,
        )
        .groupby("n_sessions")
        .aggregate(Sum("nu_p"))
        .rename_columns({"sum(nu_p)": "n_users"})
    )


def _q_repeat_customers(sf_dir: str):
    """Repeat-purchase rate by market segment: per-customer order
    counts fold inside customer-hash buckets (bounded dispatch),
    segment resolved by broadcast, exact ints + one float share."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from console_log_parser_ray.sources.cache import map_keyed
    from console_log_parser_ray.stages.dedup import _cached_get
    from console_log_parser_ray.stages.relational import fk_searchsorted

    t = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    ck = np.asarray(t.column("c_custkey").to_pylist(), np.int64)
    sg = np.asarray(t.column("c_mktsegment").to_pylist())
    order = np.argsort(ck)
    ck, sg = ck[order], sg[order]
    segs = sorted(set(sg.tolist()))
    sid = {s: i for i, s in enumerate(segs)}
    sidx = np.array([sid[s] for s in sg], np.int64)
    ref = ray.put((ck, sidx))

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"]
    )

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tt = b.filter(pc.is_valid(b.column("o_custkey")))
        g = (
            pa.table({"c": tt.column("o_custkey").cast(pa.int64())})
            .group_by("c")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "c": g.column("c"),
                "n_p": g.column("count_all").cast(pa.int64()),
            }
        )

    def per_bucket(tbl: pa.Table, _r=ref) -> pa.Table:
        import numpy as np
        import pandas as pd
        import pyarrow as pa

        c_k, s_i = _cached_get(_r)
        df = (
            tbl.select(["c", "n_p"])
            .to_pandas()
            .groupby("c", sort=False)["n_p"]
            .sum()
        )
        cust = df.index.to_numpy(dtype="int64")
        cnt = df.to_numpy(dtype="int64")
        si = s_i[fk_searchsorted(c_k, cust, "repeat_customers fk")]
        n_seg = int(s_i.max()) + 1
        ncust = np.zeros(n_seg, np.int64)
        nrep = np.zeros(n_seg, np.int64)
        np.add.at(ncust, si, 1)
        np.add.at(nrep, si[cnt >= 2], 1)
        nz = np.flatnonzero(ncust > 0)
        return pa.table(
            {
                "si": pa.array(nz, pa.int64()),
                "nc_p": pa.array(ncust[nz], pa.int64()),
                "nr_p": pa.array(nrep[nz], pa.int64()),
            }
        )

    agg = (
        map_keyed(
            orders.map_batches(partial, batch_format="pyarrow"),
            per_bucket,
            key="c",
            n_buckets=64,
        )
        .groupby("si")
        .aggregate(Sum("nc_p"), Sum("nr_p"))
        .take_all()
    )
    agg.sort(key=lambda r: int(r["si"]))
    return pa.table(
        {
            "c_mktsegment": pa.array(
                [segs[int(r["si"])] for r in agg], pa.string()
            ),
            "n_customers": pa.array(
                [int(r["sum(nc_p)"]) for r in agg], pa.int64()
            ),
            "n_repeat": pa.array(
                [int(r["sum(nr_p)"]) for r in agg], pa.int64()
            ),
            "repeat_share": pa.array(
                [
                    float(int(r["sum(nr_p)"]))
                    / float(int(r["sum(nc_p)"]))
                    for r in agg
                ],
                pa.float64(),
            ),
        }
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "parse_clean_text": _q_parse_clean_text,
        "parse_structure": _q_parse_structure,
        "role_counts": _q_role_counts,
        "tool_sink_counts": _q_tool_sink_counts,
        "commands": _q_commands,
        "conv_rollup": _q_conv_rollup,
        "seq_histogram": _q_seq_histogram,
        "turn_events": _q_turn_events,
        "conv_fingerprint": _q_conv_fingerprint,
        "asciinema_clean_text": _q_asciinema_clean_text,
        "recording_end": _q_recording_end,
        "html_escape": _q_html_escape,
        "sgr_spans": _q_sgr_spans,
        "index_entries": _q_index_entries,
        "chapters_enrich": _q_chapters_enrich,
        "redact": _q_redact,
        "normalize": _q_normalize,
        "ngram_topk": _q_ngram_topk,
        "curate": _q_curate,
        "twebber_hops": _q_twebber_hops,
        "dedup_exact": _q_dedup_exact,
        "dedup_minhash": _q_dedup_minhash,
        "dup_clusters": _q_dup_clusters,
        "decontaminate": _q_decontaminate,
        "sample_stratified": _q_sample_stratified,
        "kmeans": _q_kmeans,
        "semdedup": _q_semdedup,
        "token_jaccard": _q_token_jaccard,
        "embedding_near_dups": _q_embedding_near_dups,
        "simhash": _q_simhash,
        "token_stats": _q_token_stats,
        "rep_signals": _q_rep_signals,
        "ngram_rep": _q_ngram_rep,
        "line_dedup": _q_line_dedup,
        "shard_assign": _q_shard_assign,
        "pack_sequences": _q_pack_sequences,
        "mix_domains": _q_mix_domains,
        "chunk_docs": _q_chunk_docs,
        "top_decile_docs": _q_top_decile_docs,
        "event_gaps": _q_event_gaps,
        "distinct_users": _q_distinct_users,
        "approx_distinct_users": _q_approx_distinct_users,
        "role_transitions": _q_role_transitions,
        "doc_rank": _q_doc_rank,
        "user_rolling": _q_user_rolling,
        "q10_returns": _q_q10_returns,
        "q5_region_revenue": _q_q5_region_revenue,
        "bloom_urgent": _q_bloom_urgent,
        "audience_overlap": _q_audience_overlap,
        "idle_customers": _q_idle_customers,
        "doc_decile": _q_doc_decile,
        "conv_text": _q_conv_text,
        "mad_outliers": _q_mad_outliers,
        "props_extract": _q_props_extract,
        "user_history": _q_user_history,
        "user_running": _q_user_running,
        "dup_spans": _q_dup_spans,
        "simhash_dups": _q_simhash_dups,
        "simhash_clusters": _q_simhash_clusters,
        "heavy_hitters": _q_heavy_hitters,
        "sampled_quantiles": _q_sampled_quantiles,
        "cms_counts": _q_cms_counts,
        "winsorize": _q_winsorize,
        "zscore": _q_zscore,
        "epoch_upsample": _q_epoch_upsample,
        "postings": _q_postings,
        "bm25": _q_bm25,
        "token_budget": _q_token_budget,
        "hash_embed": _q_hash_embed,
        "bpe_pairs": _q_bpe_pairs,
        "event_quantiles": _q_event_quantiles,
        "quality": _q_quality,
        "lang_hist": _q_lang_hist,
        "lang_pred": _q_lang_pred,
        "fingerprint": _q_fingerprint,
        "knn_bruteforce": _q_knn_bruteforce,
        "knn_ivf": _q_knn_ivf,
        "knn_ivf_indexed": _q_knn_ivf_indexed,
        "sessionize": _q_sessionize,
        "events_agg": _q_events_agg,
        "events_windowed": _q_events_windowed,
        "events_hopping": _q_events_hopping,
        "sample_docs": _q_sample_docs,
        "hopto_renumber": _q_hopto_renumber,
        "quantize_ts": _q_quantize_ts,
        "top_users": _q_top_users,
        "orders_enrich": _q_orders_enrich,
        "asof_last_order": _q_asof_last_order,
        "q1_pricing": _q_q1_pricing,
        "q3_join": _q_q3_join,
        "lang_rank": _q_lang_rank,
        "idf_rarity": _q_idf_rarity,
        "order_week_events": _q_order_week_events,
        "longest_docs": _q_longest_docs,
        "rarest_token": _q_rarest_token,
        "user_event_matrix": _q_user_event_matrix,
        "funnel": _q_funnel,
        "funnel3": _q_funnel3,
        "grok_prompt": _q_grok_prompt,
        "grok_dialects": _q_grok_dispatch,
        "log_templates": _q_log_templates,
        "multiline_records": _q_multiline_records,
        "error_bursts": _q_error_bursts,
        "part_triangles": _q_part_triangles,
        "decay_score": _q_decay_score,
        "price_band_pairs": _q_price_band_pairs,
        "phrase_search": _q_phrase_search,
        "mlm_mask": _q_mlm_mask,
        "gini_priority": _q_gini_priority,
        "interp_at_orders": _q_interp_at_orders,
        "orders_in_flight": _q_orders_in_flight,
        "khop_parts": _q_khop_parts,
        "melt_lineitem": _q_melt_lineitem,
        "dq_orders": _q_dq_orders,
        "new_returning": _q_new_returning,
        "daily_acf": _q_daily_acf,
        "benford_orders": _q_benford_orders,
        "quota_docs": _q_quota_docs,
        "wmedian_qty": _q_wmedian_qty,
        "vocab_growth_docs": _q_vocab_growth,
        "q18_big_orders": _q_q18_big_orders,
        "ab_click_view": _q_ab_click_view,
        "km_retention": _q_km_retention,
        "mwu_click_view": _q_mwu_click_view,
        "late_events": _q_late_events,
        "chisq_click_weekend": _q_chisq_click_weekend,
        "spearman_qty_price": _q_spearman_qty_price,
        "kendall_qty_disc": _q_kendall_qty_disc,
        "cramers_action_dow": _q_cramers_action_dow,
        "theil_u_priority_dow": _q_theil_u_priority_dow,
        "ewma_daily_sales": _q_ewma_daily_sales,
        "holt_weekly_sales": _q_holt_weekly_sales,
        "cmd_retry_rate": _q_cmd_retry_rate,
        "gumbel_weekly_max": _q_gumbel_weekly_max,
        "xcorr_orders_events": _q_xcorr_orders_events,
        "theil_sen_daily": _q_theil_sen_daily,
        "mk_trend_daily": _q_mk_trend_daily,
        "ppl_buckets_docs": _q_ppl_buckets_docs,
        "rake_keyphrases": _q_rake_keyphrases,
        "anova_value_type": _q_anova_value_type,
        "event_regex_funnels": _q_event_regex_funnels,
        "supplier_busy_days": _q_supplier_busy_days,
        "shard_skew_profile": _q_shard_skew_profile,
        "seasonal_strength_dow": _q_seasonal_strength_dow,
        "mus_orders": _q_mus_orders,
        "dbscan_embeddings": _q_dbscan_embeddings,
        "hard_negatives": _q_hard_negatives,
        "rolling_p95_days": _q_rolling_p95_days,
        "prf_expansion": _q_prf_expansion,
        "best_snippet": _q_best_snippet,
        "kcenter_coreset": _q_kcenter_coreset,
        "class_balance_weights": _q_class_balance_weights,
        "na_hazard": _q_na_hazard,
        "mahalanobis_lineitems": _q_mahalanobis_lineitems,
        "cooks_lineitems": _q_cooks_lineitems,
        "partial_corr_qpd": _q_partial_corr_qpd,
        "sprt_click_view": _q_sprt_click_view,
        "seq_patterns_3": _q_seq_patterns_3,
        "wasserstein_click_view": _q_wasserstein_click_view,
        "compress_ratio": _q_compress_ratio,
        "rbo_sparse_dense": _q_rbo_sparse_dense,
        "vocab_coverage": _q_vocab_coverage,
        "hill_order_values": _q_hill_order_values,
        "langid_kappa": _q_langid_kappa,
        "langid_prf": _q_langid_prf,
        "vda_click_view": _q_vda_click_view,
        "slo_burn": _q_slo_burn,
        "dow_profile": _q_dow_profile,
        "flesch_docs": _q_flesch_docs,
        "split_leakage_docs": _q_split_leakage,
        "part_clustering": _q_part_clustering,
        "attribution": _q_attribution,
        "psi_value_drift": _q_psi_drift,
        "interarrival_exp": _q_interarrival_exp,
        "hysteresis_alerts": _q_hysteresis,
        "fano_burstiness": _q_fano,
        "changepoint_value": _q_changepoint,
        "window_movers": _q_window_movers,
        "log_odds_src1": _q_log_odds,
        "token_burstiness": _q_token_burstiness,
        "mmr_diverse": _q_mmr,
        "q4_priority": _q_q4_priority,
        "alert_cooldown": _q_alert_cooldown,
        "mase_windows": _q_mase,
        "ols_trend": _q_ols_trend,
        "part_assortativity": _q_assortativity,
        "basket_rules": _q_basket_rules,
        "markov_entropy": _q_markov_entropy,
        "bursty_users": _q_bursty_users,
        "bot_regularity": _q_bot_regularity,
        "q7_nation_flows": _q_q7_nation_flows,
        "brand_returns": _q_brand_returns,
        "wilson_ctr": _q_wilson_ctr,
        "target_encode": _q_target_encode,
        "ttfp_cohorts": _q_ttfp,
        "rfm_segments": _q_rfm,
        "bounce_rate": _q_bounce,
        "revenue_top1pct": _q_concentration,
        "js_value_drift": _q_js,
        "ttr_by_source": _q_ttr,
        "ri_audit": _q_ri_audit,
        "session_durations": _q_session_durations,
        "chapman_users": _q_chapman,
        "dow_hour_heatmap": _q_dow_hour,
        "brand_reorder": _q_brand_reorder,
        "order_size_hist": _q_order_size_hist,
        "profile_events": _q_profile_events,
        "brand_growth_share": _q_brand_growth,
        "tool_rules": _q_tool_rules,
        "tool_transitions": _q_tool_transitions,
        "segment_cadence": _q_segment_cadence,
        "discount_curve": _q_discount_curve,
        "part_type_pricing": _q_part_type_pricing,
        "region_balances": _q_region_balances,
        "supplier_hhi": _q_supplier_hhi,
        "segment_priority_mix": _q_segment_priority_mix,
        "tools_per_conv": _q_tools_per_conv,
        "role_runs": _q_role_runs,
        "top_commands": _q_top_commands,
        "vim_share": _q_vim_share,
        "turnlen_by_role": _q_turnlen_by_role,
        "priority_trend": _q_priority_trend,
        "ship_delay_hist": _q_ship_delay_hist,
        "peak_3h_rate": _q_peak_3h_rate,
        "fast_orders": _q_fast_orders,
        "peak_revenue_day": _q_peak_revenue_day,
        "dup_rate_by_source": _q_dup_rate_by_source,
        "nonascii_by_source": _q_nonascii_by_source,
        "sentences_by_lang": _q_sentences_by_lang,
        "session_entry_exit": _q_session_entry_exit,
        "cusum_alerts": _q_cusum_alerts,
        "lang_top_sources": _q_lang_top_sources,
        "media_features": _q_media_features,
        "media_resize": _q_media_resize,
        "media_frames": _q_media_frames,
        "doc_rank_big": _q_doc_rank_big,
        "lang_rank_big": _q_lang_rank_big,
        "top_decile_big": _q_top_decile_big,
        "mad_outliers_big": _q_mad_outliers_big,
        "rollup_pricing": _q_rollup_pricing,
        "lang_pctrank": _q_lang_pctrank,
        "lang_pctrank_big": _q_lang_pctrank_big,
        "user_gapfill": _q_user_gapfill,
        "latest_state": _q_latest_state,
        "scd2_state": _q_scd2_state,
        "fuzzy_name_pairs": _q_fuzzy_name_pairs,
        "cooccur_top": _q_cooccur_top,
        "profile_orders": _q_profile_orders,
        "regr_price_qty": _q_regr_price_qty,
        "snapshot_diff_cust": _q_snapshot_diff_cust,
        "throttled_events": _q_throttled_events,
        "weighted_sample": _q_weighted_sample,
        "cube_pricing": _q_cube_pricing,
        "window_reach": _q_window_reach,
        "event_quantiles_cont": _q_event_quantiles_cont,
        "cohort_retention": _q_cohort_retention,
        "knn_graph": _q_knn_graph,
        "merge_customers": _q_merge_customers,
        "bool_search": _q_bool_search,
        "salted_join": _q_salted_join,
        "class_centroids": _q_class_centroids,
        "top_paths": _q_top_paths,
        "unigram_lm": _q_unigram_lm,
        "vocab_oov": _q_vocab_oov,
        "pagerank_parts": _q_pagerank_parts,
        "dedup_priority": _q_dedup_priority,
        "bigram_lm": _q_bigram_lm,
        "twap": _q_twap,
        "token_entropy": _q_token_entropy,
        "kmv_users": _q_kmv_users,
        "domain_kl": _q_domain_kl,
        "pmi_topk": _q_pmi_topk,
        "split_assign_docs": _q_split_assign,
        "vocab_overlap": _q_vocab_overlap,
        "user_entropy": _q_user_entropy,
        "hybrid_rrf": _q_hybrid_rrf,
        "skyline_orders": _q_skyline_orders,
        "user_streaks": _q_user_streaks,
        "corr_matrix": _q_corr_matrix,
        "setsim_pairs": _q_setsim_pairs,
        "nearest_click": _q_nearest_click,
        "lang_source_mi": _q_mutual_info,
        "user_time_rolling": _q_user_time_rolling,
        "outer_join_users": _q_outer_join_users,
        "turn_gap_by_role": _q_turn_gap_by_role,
        "conv_duration_hist": _q_conv_duration_hist,
        "hapax_by_source": _q_hapax,
        "zipf_slope": _q_zipf_slope,
        "brand_supplier_breadth": _q_brand_supplier_breadth,
        "blamed_suppliers": _q_blamed_suppliers,
        "role_pattern_topk": _q_role_pattern_topk,
        "wau_weekly": _q_wau_weekly,
        "lang_confusion": _q_lang_confusion,
        "stickiness": _q_stickiness,
        "order_value_deciles": _q_order_value_deciles,
        "pii_by_source": _q_pii_by_source,
        "sessions_per_user_hist": _q_sessions_per_user_hist,
        "repeat_customers": _q_repeat_customers,
    }


def oracle_sql() -> dict[str, str]:
    # the SQL side reads the same deterministic cached parquet the Ray
    # queries parse; make sure it exists even if the driver evaluates
    # the SQL before running the Ray side
    try:
        _cache.ensure_transcripts("/root/testdata/sf0.01")
    except Exception:
        pass
    t = f"read_parquet('{_SF001_GLOB}')"
    out = {
        "parse_clean_text": (
            "SELECT conv_id, turn_idx, expected_clean_text AS clean_text "
            f"FROM {t}"
        ),
        "asciinema_clean_text": (
            "SELECT conv_id, turn_idx, expected_clean_text AS clean_text "
            f"FROM {t}"
        ),
        "recording_end": (
            # mirror of the deterministic frame cut: turn i -> one frame
            # at ts i, plus a second at i+0.1 when i%3==0 and the
            # newline-terminated line exceeds 4 chars
            "SELECT conv_id, "
            "max(CASE WHEN turn_idx % 3 = 0 AND length(text) + 1 > 4 "
            "THEN turn_idx + 0.1 ELSE CAST(turn_idx AS DOUBLE) END) "
            "AS end_ts, "
            "CAST(sum(CASE WHEN turn_idx % 3 = 0 AND length(text) + 1 > 4 "
            "THEN 2 ELSE 1 END) AS BIGINT) AS n_frames "
            f"FROM {t} GROUP BY conv_id"
        ),
        "html_escape": (
            "SELECT conv_id, turn_idx, "
            "replace(replace(replace(replace(expected_clean_text, "
            "'&', '&amp;'), '>', '&gt;'), '<', '&lt;'), "
            "'\"', '&quot;') AS html "
            f"FROM {t}"
        ),
        "sgr_spans": _sgr_spans_sql(t),
        "index_entries": (
            "WITH per_conv AS (SELECT conv_id, "
            "CAST(max(expected_cmd_count) AS BIGINT) AS n_cmds, "
            "min(CASE WHEN expected_cmd_count = 1 "
            "THEN expected_command END) AS title "
            f"FROM {t} GROUP BY conv_id) "
            "SELECT title, conv_id, n_cmds FROM per_conv "
            "QUALIFY row_number() OVER "
            "(PARTITION BY title ORDER BY conv_id) = 1"
        ),
        "chapters_enrich": _chapters_enrich_sql(t),
        "redact": (
            "SELECT conv_id, turn_idx, regexp_replace(regexp_replace("
            "expected_clean_text, "
            "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+', '<USER@HOST>', 'g'), "
            "'\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b', "
            "'<IP>', 'g') AS redacted "
            f"FROM {t}"
        ),
        "normalize": (
            "SELECT conv_id, turn_idx, regexp_replace(regexp_replace("
            "lower(expected_clean_text), "
            "'[\t ]+', ' ', 'g'), "
            "'^[\t\n ]+|[\t\n ]+$', '', 'g') AS norm "
            f"FROM {t}"
        ),
        "curate": (
            "WITH all_docs AS (SELECT doc_id, text FROM documents "
            "UNION ALL SELECT doc_id + 1000000, text FROM documents), "
            "q AS (SELECT doc_id, text FROM all_docs "
            "WHERE len(regexp_extract_all(text, '\\S+')) "
            "BETWEEN 20 AND 10000), "
            "d AS (SELECT min(doc_id) AS doc_id FROM q GROUP BY text) "
            "SELECT doc_id FROM d "
            "WHERE ((doc_id & 2147483647) * 2654435761) % 4294967296 "
            "< 858993459"
        ),
        "ngram_topk": (
            "WITH toks AS (SELECT regexp_extract_all(text, '\\S+') AS tk "
            "FROM documents), "
            "g AS (SELECT unnest(list_transform("
            "generate_series(1, len(tk) - 2), "
            "i -> concat_ws(' ', tk[i], tk[i+1], tk[i+2]))) AS ngram "
            "FROM toks WHERE len(tk) >= 3) "
            "SELECT ngram, CAST(count(*) AS BIGINT) AS n FROM g "
            "GROUP BY ngram ORDER BY n DESC, ngram LIMIT 20"
        ),
        "parse_structure": (
            "SELECT conv_id, turn_idx, expected_role AS role, "
            "expected_cmd_count AS cmd_count, expected_in_vim AS in_vim, "
            f"expected_command AS command FROM {t}"
        ),
        "role_counts": (
            f"SELECT expected_role AS role, count(*) AS n FROM {t} GROUP BY 1"
        ),
        "tool_sink_counts": (
            f"SELECT {_TOOL_SINK_CASE} AS sink, count(*) AS n FROM {t} "
            "GROUP BY 1"
        ),
        "commands": (
            "SELECT DISTINCT conv_id, expected_cmd_count AS cmd_count, "
            "expected_command AS command, expected_tool AS tool "
            f"FROM {t} WHERE expected_cmd_count > 0"
        ),
        "conv_rollup": (
            "SELECT conv_id, count(*) AS n_turns, "
            "CAST(max(expected_cmd_count) AS BIGINT) AS n_cmds, "
            "count(*) FILTER (WHERE expected_in_vim AND "
            "strpos(text, chr(27) || '[22;0;0t') > 0) AS n_vim_sessions "
            f"FROM {t} GROUP BY conv_id"
        ),
        "dedup_exact": (
            "WITH all_docs AS (SELECT doc_id, text FROM documents "
            "UNION ALL SELECT doc_id + 1000000, text FROM documents) "
            "SELECT min(doc_id) AS doc_id FROM all_docs GROUP BY text"
        ),
        "token_stats": (
            "SELECT doc_id, "
            "len(regexp_extract_all(text, '\\S+')) AS n_tokens, "
            "len(regexp_extract_all(text, "
            "'[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]')) AS n_pieces, "
            "length(text) AS n_chars FROM documents"
        ),
        "shard_assign": (
            # the export placement rule: 31-bit-masked multiplicative
            # hash mod 2^32 mod n_shards (overflow-safe in BIGINT)
            "SELECT doc_id, ((doc_id & 2147483647) * 2654435761) "
            "% 4294967296 % 16 AS shard FROM documents"
        ),
        "pack_sequences": (
            # the contiguous packing rule verbatim: per-shard running
            # token sum ordered by doc_id; pack = first-token offset
            # // budget.  sum() promotes to HUGEINT -> cast back.
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
        ),
        "mix_domains": (
            # same mixture math: weight = src index % 4 + 1; binding
            # domain = smallest count/weight (float64 order, name
            # tie-break); integer keep-thresholds on the 32-bit hash
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
        ),
        "event_gaps": (
            # the LAG rule verbatim; ties broken by event_id on both
            # sides; integer microseconds so the hash is exact
            "SELECT event_id, user_id, ts, "
            "epoch_us(ts) - lag(epoch_us(ts)) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) AS gap_us "
            "FROM events"
        ),
        "distinct_users": (
            "SELECT event_type, COUNT(DISTINCT user_id) AS n_distinct "
            "FROM events GROUP BY event_type"
        ),
        "approx_distinct_users": (
            # murmur3 fmix32 over the low 31 bits (HUGEINT multiply
            # keeps the mod-2^32 products exact; numpy side wraps in
            # uint64), then m=64 HLL registers; bin() length == integer
            # bit length (DuckDB bin() never zero-pads).  The est
            # numerator multiplies 0.709::DOUBLE by powers of two only,
            # so both engines compute the identical double before the
            # one division.
            "WITH h0 AS (SELECT event_type, user_id & 2147483647 AS h "
            "  FROM events), "
            "h1 AS (SELECT event_type, xor(h, h >> 16) AS h FROM h0), "
            "h2 AS (SELECT event_type, CAST((CAST(h AS HUGEINT) "
            "  * 2246822507) % 4294967296 AS BIGINT) AS h FROM h1), "
            "h3 AS (SELECT event_type, xor(h, h >> 13) AS h FROM h2), "
            "h4 AS (SELECT event_type, CAST((CAST(h AS HUGEINT) "
            "  * 3266489909) % 4294967296 AS BIGINT) AS h FROM h3), "
            "h5 AS (SELECT event_type, xor(h, h >> 16) AS h FROM h4), "
            "r AS (SELECT event_type, h % 64 AS reg, h // 64 AS w "
            "  FROM h5), "
            "rk AS (SELECT event_type, reg, MAX(27 - (CASE WHEN w = 0 "
            "  THEN 0 ELSE length(bin(w)) END)) AS rnk "
            "  FROM r GROUP BY event_type, reg), "
            "agg AS (SELECT event_type, "
            "  CAST(SUM(1::BIGINT << (27 - rnk)) AS BIGINT) "
            "    AS inv_present, "
            "  COUNT(*) AS n_present FROM rk GROUP BY event_type) "
            "SELECT event_type, "
            "  inv_present + (64 - n_present) * 134217728 "
            "    AS inv_sum_scaled, "
            "  64 - n_present AS n_zero_regs, "
            "  (((0.709::DOUBLE * 64) * 64) * 134217728) "
            "    / CAST(inv_present + (64 - n_present) * 134217728 "
            "      AS DOUBLE) AS est "
            "FROM agg"
        ),
        "role_transitions": (
            # adjacent-turn pairs within each conversation in turn_idx
            # order; ground-truth roles mirror the parse (parity pinned
            # by the parse_structure oracle)
            "WITH p AS (SELECT conv_id, expected_role AS role, "
            "  lead(expected_role) OVER "
            "  (PARTITION BY conv_id ORDER BY turn_idx) AS nxt "
            f"  FROM {t}) "
            "SELECT role AS from_state, nxt AS to_state, count(*) AS n "
            "FROM p WHERE nxt IS NOT NULL GROUP BY role, nxt"
        ),
        "doc_rank": (
            "SELECT doc_id, n_chars, "
            "row_number() OVER (ORDER BY n_chars DESC, doc_id) AS rank "
            "FROM documents"
        ),
        "user_rolling": (
            # bounded frame over integer cents; ties broken by
            # event_id on both sides
            "SELECT event_id, user_id, ts, "
            "CAST(sum(CAST(floor(value * 100) AS BIGINT)) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) "
            "AS win_cents FROM events"
        ),
        "doc_decile": (
            "SELECT doc_id, n_chars, "
            "ntile(10) OVER (ORDER BY n_chars, doc_id) AS tile "
            "FROM documents"
        ),
        "props_extract": (
            # same RE2 rule both sides; '' (no match) -> null
            "SELECT event_id, TRY_CAST(NULLIF(regexp_extract(props, "
            "'\"k\":\\s*(-?\\d+)', 1), '') AS BIGINT) AS k FROM events"
        ),
        "user_history": (
            # ordered collect_list LIMIT 3 (1-based inclusive slice)
            "SELECT user_id, array_to_string("
            "list(event_type ORDER BY ts, event_id)[1:3], ',') "
            "AS first_k, count(*) AS n_events "
            "FROM events GROUP BY user_id"
        ),
        "conv_text": (
            "SELECT conv_id, "
            "string_agg(text, chr(10) ORDER BY turn_idx) AS conv_text, "
            "count(*) AS n_turns "
            f"FROM {t} GROUP BY conv_id"
        ),
        "mad_outliers": (
            # percentile_disc medians (actual elements), all-integer
            # comparison -- exact on both sides
            "WITH med AS (SELECT quantile_disc(n_chars, 0.5) AS m "
            "  FROM documents), "
            "mad AS (SELECT quantile_disc("
            "  abs(n_chars - (SELECT m FROM med)), 0.5) AS d "
            "  FROM documents) "
            "SELECT doc_id, n_chars, "
            "abs(n_chars - (SELECT m FROM med)) > 3 * (SELECT d FROM mad) "
            "  AS is_outlier FROM documents"
        ),
        "audience_overlap": (
            "WITH d AS (SELECT DISTINCT event_type, user_id "
            "  FROM events) "
            "SELECT a.event_type AS type_a, b.event_type AS type_b, "
            "  count(*) AS n_both "
            "FROM d a JOIN d b ON a.user_id = b.user_id "
            "  AND a.event_type < b.event_type "
            "GROUP BY a.event_type, b.event_type"
        ),
        "idle_customers": (
            "SELECT c_custkey, c_nationkey FROM customer c "
            "WHERE NOT EXISTS (SELECT 1 FROM orders "
            "  WHERE o_custkey = c.c_custkey "
            "  AND o_orderdate >= TIMESTAMP '1999-01-01' "
            "  AND o_orderdate < TIMESTAMP '2000-01-01')"
        ),
        "q10_returns": (
            # integer-exact revenue: cents x (100 - discount pct);
            # 2-decimal inputs keep x*100 off the .5 rounding boundary
            "WITH li AS (SELECT l_orderkey, "
            "  CAST(round(l_extendedprice * 100) AS BIGINT) "
            "  * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev "
            "  FROM lineitem WHERE l_returnflag = 'R'), "
            "o AS (SELECT o_orderkey, o_custkey FROM orders "
            "  WHERE o_orderdate >= TIMESTAMP '1999-01-01' "
            "  AND o_orderdate < TIMESTAMP '2000-01-01') "
            "SELECT o_custkey, CAST(sum(rev) AS BIGINT) "
            "  AS revenue_milli "
            "FROM li JOIN o ON l_orderkey = o_orderkey "
            "GROUP BY o_custkey "
            "ORDER BY revenue_milli DESC, o_custkey LIMIT 20"
        ),
        "bloom_urgent": (
            # the bloom pushdown is exact (verify join after), so the
            # mirror is the plain semi-join; quantities are integral
            "SELECT l_returnflag, count(*) AS n_items, "
            "  CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) "
            "  AS sum_qty "
            "FROM lineitem WHERE l_orderkey IN "
            "  (SELECT o_orderkey FROM orders "
            "   WHERE o_orderpriority = '1-URGENT') "
            "GROUP BY l_returnflag"
        ),
        "q5_region_revenue": (
            # integer-exact revenue (same milli-unit convention as
            # q10); local-supplier predicate c_nationkey = s_nationkey
            "SELECT n_name, CAST(SUM("
            "  CAST(round(l_extendedprice * 100) AS BIGINT) "
            "  * (100 - CAST(round(l_discount * 100) AS BIGINT))"
            ") AS BIGINT) AS revenue_milli "
            "FROM customer, orders, lineitem, supplier, nation, region "
            "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
            "  AND l_suppkey = s_suppkey "
            "  AND c_nationkey = s_nationkey "
            "  AND s_nationkey = n_nationkey "
            "  AND n_regionkey = r_regionkey AND r_name = 'ASIA' "
            "  AND o_orderdate >= TIMESTAMP '1996-01-01' "
            "  AND o_orderdate < TIMESTAMP '1997-01-01' "
            "GROUP BY n_name"
        ),
        "user_running": (
            # integer cents (floor(value*100)) keep the running sum
            # associative-exact; ties broken by event_id on both sides
            "SELECT event_id, user_id, ts, "
            "row_number() OVER w AS seq, "
            "CAST(sum(CAST(floor(value * 100) AS BIGINT)) OVER w "
            "  AS BIGINT) AS run_cents FROM events "
            "WINDOW w AS (PARTITION BY user_id "
            "ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)"
        ),
        "dup_spans": (
            # identical rule: \S+ tokens, 8-token spans (1-based
            # inclusive list slice), DISTINCT per (doc, span); a span
            # is duplicated when >= 2 docs contain it; docs with < 8
            # tokens emit nothing (inner-join semantics both sides)
            "WITH t AS (SELECT doc_id, "
            "  regexp_extract_all(text, '\\S+') AS tk FROM documents), "
            "s AS (SELECT doc_id, tk, len(tk) AS n FROM t "
            "  WHERE len(tk) >= 8), "
            "g AS (SELECT doc_id, tk, "
            "  unnest(generate_series(0, n - 8)) AS i FROM s), "
            "d AS (SELECT DISTINCT doc_id, "
            "  array_to_string(tk[i+1 : i+8], ' ') AS span FROM g), "
            "df AS (SELECT span, count(*) AS df FROM d GROUP BY span) "
            "SELECT d.doc_id, count(*) AS n_spans, "
            "  CAST(count(*) FILTER (WHERE df.df >= 2) AS BIGINT) "
            "    AS n_dup_spans "
            "FROM d JOIN df USING (span) GROUP BY d.doc_id"
        ),
        "chunk_docs": (
            # identical rule: \S+ tokens; window i covers
            # [i*24, i*24+32) while i*24 < n; 1-based inclusive list
            # slice; zero-token docs emit nothing (n > 0 guard keeps
            # DuckDB's truncating // off the n=0 case)
            "WITH t AS (SELECT doc_id, "
            "  regexp_extract_all(text, '\\S+') AS tk FROM documents), "
            "s AS (SELECT doc_id, tk, len(tk) AS n FROM t "
            "  WHERE len(tk) > 0), "
            "c AS (SELECT doc_id, tk, n, "
            "  unnest(generate_series(0, (n-1)//24)) AS chunk_idx "
            "  FROM s) "
            "SELECT doc_id, chunk_idx, "
            "len(tk[chunk_idx*24+1 : chunk_idx*24+32]) "
            "  AS n_chunk_tokens, "
            "array_to_string(tk[chunk_idx*24+1 : chunk_idx*24+32], ' ') "
            "  AS chunk_text FROM c"
        ),
        "top_decile_docs": (
            # quantile_disc == the engine's ceil(q*N) rank rule
            "SELECT doc_id, n_chars FROM documents "
            "WHERE n_chars >= "
            "(SELECT quantile_disc(n_chars, 0.9) FROM documents)"
        ),
        "rep_signals": (
            # same definition as the engine: non-empty newline-split
            # lines; integer counts, float64 divisions
            "WITH lines AS (SELECT doc_id, unnest(string_split(text, "
            "  chr(10))) AS line FROM documents), "
            "nz AS (SELECT doc_id, line FROM lines WHERE line <> ''), "
            "per_line AS (SELECT doc_id, line, count(*) AS c FROM nz "
            "  GROUP BY doc_id, line), "
            "agg AS (SELECT doc_id, sum(c) AS n, count(*) AS d, "
            "  max(c) AS t FROM per_line GROUP BY doc_id) "
            "SELECT doc.doc_id, "
            "CAST(coalesce(agg.n, 0) AS BIGINT) AS n_lines, "
            "coalesce((agg.n - agg.d) * 1.0 / agg.n, 0.0) "
            "  AS dup_line_frac, "
            "coalesce(agg.t * 1.0 / agg.n, 0.0) AS top_line_frac "
            "FROM documents doc LEFT JOIN agg USING (doc_id)"
        ),
        "ngram_rep": (
            # same definition as the engine: whitespace tokens,
            # overlapping n-grams, integer counts, one float64
            # division per fraction
            "WITH dt AS (SELECT doc_id, "
            "  regexp_extract_all(text, '\\S+') AS tk FROM documents), "
            "g2 AS (SELECT doc_id, unnest(list_transform("
            "  generate_series(1, len(tk) - 1), "
            "  i -> concat_ws(' ', tk[i], tk[i+1]))) AS g "
            "  FROM dt WHERE len(tk) >= 2), "
            "c2 AS (SELECT doc_id, g, count(*) AS c FROM g2 "
            "  GROUP BY doc_id, g), "
            "a2 AS (SELECT doc_id, sum(c) AS n, count(*) AS d, "
            "  max(c) AS t FROM c2 GROUP BY doc_id), "
            "g3 AS (SELECT doc_id, unnest(list_transform("
            "  generate_series(1, len(tk) - 2), "
            "  i -> concat_ws(' ', tk[i], tk[i+1], tk[i+2]))) AS g "
            "  FROM dt WHERE len(tk) >= 3), "
            "c3 AS (SELECT doc_id, g, count(*) AS c FROM g3 "
            "  GROUP BY doc_id, g), "
            "a3 AS (SELECT doc_id, sum(c) AS n, count(*) AS d, "
            "  max(c) AS t FROM c3 GROUP BY doc_id), "
            "g4 AS (SELECT doc_id, unnest(list_transform("
            "  generate_series(1, len(tk) - 3), "
            "  i -> concat_ws(' ', tk[i], tk[i+1], tk[i+2], "
            "  tk[i+3]))) AS g FROM dt WHERE len(tk) >= 4), "
            "c4 AS (SELECT doc_id, g, count(*) AS c FROM g4 "
            "  GROUP BY doc_id, g), "
            "a4 AS (SELECT doc_id, sum(c) AS n, count(*) AS d, "
            "  max(c) AS t FROM c4 GROUP BY doc_id) "
            "SELECT d.doc_id, "
            "CAST(coalesce(a2.n, 0) AS BIGINT) AS n_grams_2, "
            "coalesce((a2.n - a2.d) * 1.0 / a2.n, 0.0) "
            "  AS dup_2gram_frac, "
            "coalesce(a2.t * 1.0 / a2.n, 0.0) AS top_2gram_frac, "
            "CAST(coalesce(a3.n, 0) AS BIGINT) AS n_grams_3, "
            "coalesce((a3.n - a3.d) * 1.0 / a3.n, 0.0) "
            "  AS dup_3gram_frac, "
            "coalesce(a3.t * 1.0 / a3.n, 0.0) AS top_3gram_frac, "
            "CAST(coalesce(a4.n, 0) AS BIGINT) AS n_grams_4, "
            "coalesce((a4.n - a4.d) * 1.0 / a4.n, 0.0) "
            "  AS dup_4gram_frac, "
            "coalesce(a4.t * 1.0 / a4.n, 0.0) AS top_4gram_frac "
            "FROM documents d LEFT JOIN a2 USING (doc_id) "
            "LEFT JOIN a3 USING (doc_id) LEFT JOIN a4 USING (doc_id)"
        ),
        "lang_top_sources": (
            "WITH c AS (SELECT lang, source, "
            "CAST(count(*) AS BIGINT) AS n FROM documents "
            "GROUP BY 1, 2), "
            "r AS (SELECT lang, source, n, row_number() OVER ("
            "PARTITION BY lang ORDER BY n DESC, source) AS rk "
            "FROM c), "
            "m AS (SELECT lang, CASE WHEN rk <= 2 THEN source "
            "ELSE '<OTHER>' END AS source, n FROM r) "
            "SELECT lang, source, CAST(sum(n) AS BIGINT) AS n "
            "FROM m GROUP BY 1, 2"
        ),
        "session_entry_exit": (
            # same gap rule as the sessionize oracle; first/last via
            # bidirectional row_number inside each session
            "WITH flagged AS (SELECT user_id, event_id, event_type, "
            "epoch_us(ts) AS tus, CASE WHEN epoch_us(ts) - "
            "lag(epoch_us(ts)) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id) > 1800000000 THEN 1 ELSE 0 END "
            "AS new_sess FROM events), "
            "s AS (SELECT user_id, event_type, tus, event_id, "
            "CAST(sum(new_sess) OVER (PARTITION BY user_id "
            "ORDER BY tus, event_id ROWS UNBOUNDED PRECEDING) "
            "AS BIGINT) AS sid FROM flagged), "
            "r AS (SELECT user_id, sid, event_type, "
            "row_number() OVER (PARTITION BY user_id, sid "
            "ORDER BY tus, event_id) AS rn_a, "
            "row_number() OVER (PARTITION BY user_id, sid "
            "ORDER BY tus DESC, event_id DESC) AS rn_d FROM s), "
            "fe AS (SELECT user_id, sid, "
            "max(CASE WHEN rn_a = 1 THEN event_type END) "
            "AS entry_type, "
            "max(CASE WHEN rn_d = 1 THEN event_type END) "
            "AS exit_type FROM r GROUP BY user_id, sid) "
            "SELECT entry_type, exit_type, "
            "CAST(count(*) AS BIGINT) AS n_sessions FROM fe "
            "GROUP BY 1, 2"
        ),
        "cusum_alerts": (
            # closed form S_i = P_i - min(0, running min of P):
            # cumsum + running-min windows, integer cents end-to-end
            "WITH c AS (SELECT user_id, event_id, epoch_us(ts) AS t, "
            "CAST(floor(value * 100) AS BIGINT) - 5000 AS dev "
            "FROM events), "
            "p AS (SELECT user_id, event_id, t, CAST(sum(dev) OVER ("
            "PARTITION BY user_id ORDER BY t, event_id "
            "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS pl FROM c), "
            "m AS (SELECT user_id, event_id, t, pl, "
            "least(CAST(min(pl) OVER (PARTITION BY user_id "
            "ORDER BY t, event_id ROWS UNBOUNDED PRECEDING) "
            "AS BIGINT), 0) AS rmin FROM p) "
            "SELECT user_id, event_id, t AS t_us, pl - rmin "
            "AS cusum_q FROM m WHERE pl - rmin >= 50000"
        ),
        "new_returning": (
            "WITH p AS (SELECT DISTINCT epoch_us(ts) // 86400000000 "
            "AS day, user_id FROM events), "
            "f AS (SELECT user_id, min(day) AS fday FROM p "
            "GROUP BY 1) "
            "SELECT p.day, CAST(count(*) AS BIGINT) AS n_active, "
            "CAST(count(*) FILTER (WHERE f.fday = p.day) AS BIGINT) "
            "AS n_new, "
            "CAST(count(*) FILTER (WHERE f.fday < p.day) AS BIGINT) "
            "AS n_returning "
            "FROM p JOIN f USING (user_id) GROUP BY p.day"
        ),
        "daily_acf": (
            # exact HUGEINT moment sums; the engine's Python-int
            # driver finish is the same closed form
            "WITH d AS (SELECT epoch_us(ts) // 86400000000 AS day, "
            "CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1), "
            "l AS (SELECT unnest(generate_series(1, 7)) AS lag), "
            "p AS (SELECT l.lag, a.n AS x, b.n AS y FROM l "
            "CROSS JOIN d a JOIN d b ON b.day = a.day + l.lag), "
            "m AS (SELECT lag, CAST(count(*) AS BIGINT) AS m, "
            "sum(CAST(x AS HUGEINT)) AS sx, "
            "sum(CAST(y AS HUGEINT)) AS sy, "
            "sum(CAST(x AS HUGEINT) * y) AS sxy, "
            "sum(CAST(x AS HUGEINT) * x) AS sxx, "
            "sum(CAST(y AS HUGEINT) * y) AS syy FROM p GROUP BY 1) "
            "SELECT l.lag, CAST(coalesce(m.m, 0) AS BIGINT) "
            "AS n_pairs, "
            "CASE WHEN m.m > 1 AND m.m * m.sxx - m.sx * m.sx > 0 "
            "AND m.m * m.syy - m.sy * m.sy > 0 THEN "
            "CAST(m.m * m.sxy - m.sx * m.sy AS DOUBLE) / "
            "sqrt(CAST(m.m * m.sxx - m.sx * m.sx AS DOUBLE) * "
            "CAST(m.m * m.syy - m.sy * m.sy AS DOUBLE)) "
            "ELSE NULL END AS acf "
            "FROM l LEFT JOIN m USING (lag)"
        ),
        "benford_orders": (
            # first digit from the decimal string of exact integer
            # cents -- never float log10 digit extraction
            "WITH c AS (SELECT CAST(floor(o_totalprice * 100) "
            "AS BIGINT) AS cents FROM orders "
            "WHERE o_totalprice IS NOT NULL), "
            "h AS (SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) "
            "AS BIGINT) AS digit, CAST(count(*) AS BIGINT) AS n "
            "FROM c WHERE cents >= 1 GROUP BY 1), "
            "t AS (SELECT sum(n) AS tot FROM h), "
            "b AS (SELECT digit, n, "
            "CAST(n AS DOUBLE) / CAST(tot AS DOUBLE) AS share, "
            "log10(1.0 + 1.0 / digit) AS benford_p, "
            "CAST(tot AS DOUBLE) * log10(1.0 + 1.0 / digit) AS e "
            "FROM h, t) "
            "SELECT digit, n, share, benford_p, "
            "(CAST(n AS DOUBLE) - e) * (CAST(n AS DOUBLE) - e) / e "
            "AS chi2_term FROM b"
        ),
        "vocab_growth_docs": (
            # Heaps-law curve: cumulative tokens / distinct types at
            # (k * max_id) // 10 checkpoints
            "WITH t AS (SELECT doc_id, unnest(regexp_extract_all("
            "coalesce(text, ''), '\\S+')) AS tok FROM documents), "
            "f AS (SELECT tok, min(doc_id) AS fd FROM t GROUP BY 1), "
            "mx AS (SELECT max(doc_id) AS m FROM documents), "
            "c AS (SELECT k, (k * m) // 10 AS ckd FROM "
            "(SELECT unnest(generate_series(1, 10)) AS k), mx) "
            "SELECT c.k, c.ckd AS ck_doc, "
            "(SELECT CAST(count(*) AS BIGINT) FROM t "
            "WHERE doc_id <= c.ckd) AS n_tokens, "
            "(SELECT CAST(count(*) AS BIGINT) FROM f "
            "WHERE fd <= c.ckd) AS n_types FROM c"
        ),
        "q18_big_orders": (
            "WITH s AS (SELECT l_orderkey, CAST(sum(CAST(round("
            "l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty "
            "FROM lineitem GROUP BY 1 "
            "HAVING sum(CAST(round(l_quantity) AS BIGINT)) > 300) "
            "SELECT c.c_name, o.o_orderkey, o.o_orderdate, "
            "o.o_totalprice, s.sum_qty "
            "FROM s JOIN orders o ON o.o_orderkey = s.l_orderkey "
            "JOIN customer c ON c.c_custkey = o.o_custkey"
        ),
        "ab_click_view": (
            # Welch's t from exact HUGEINT moments, identical float
            # expression shape as the engine finish
            "WITH c AS (SELECT epoch_us(ts) // 86400000000 AS day, "
            "event_type AS v, CAST(floor(value * 100) AS BIGINT) AS x "
            "FROM events WHERE event_type IN ('click', 'view') "
            "AND value IS NOT NULL), "
            "a AS (SELECT day, v, CAST(count(*) AS BIGINT) AS n, "
            "sum(CAST(x AS HUGEINT)) AS sx, "
            "sum(CAST(x AS HUGEINT) * x) AS sxx FROM c GROUP BY 1, 2), "
            "j AS (SELECT a.day, a.n AS na, a.sx AS sxa, a.sxx AS sxxa, "
            "b.n AS nb, b.sx AS sxb, b.sxx AS sxxb "
            "FROM a JOIN a b ON a.day = b.day "
            "AND a.v = 'click' AND b.v = 'view'), "
            "w AS (SELECT day, na, nb, "
            "CAST(sxa AS DOUBLE) / CAST(na AS DOUBLE) AS ma, "
            "CAST(sxb AS DOUBLE) / CAST(nb AS DOUBLE) AS mb, "
            "CASE WHEN na > 1 THEN CAST(na * sxxa - sxa * sxa "
            "AS DOUBLE) / CAST(na * (na - 1) AS DOUBLE) END AS va, "
            "CASE WHEN nb > 1 THEN CAST(nb * sxxb - sxb * sxb "
            "AS DOUBLE) / CAST(nb * (nb - 1) AS DOUBLE) END AS vb "
            "FROM j) "
            "SELECT day, na AS n_a, nb AS n_b, ma / 100.0 AS mean_a, "
            "mb / 100.0 AS mean_b, "
            "CASE WHEN va IS NOT NULL AND vb IS NOT NULL "
            "AND va / na + vb / nb > 0 THEN "
            "(ma - mb) / sqrt(va / na + vb / nb) END AS t_stat FROM w"
        ),
        "km_retention": (
            # KM estimator: at-risk counts everyone with span >= t
            # (censored included); steps only at death durations;
            # window product() multiplies ascending like cumprod
            "WITH e AS (SELECT user_id, epoch_us(ts) // 86400000000 "
            "AS day FROM events), "
            "u AS (SELECT user_id, min(day) AS f, max(day) AS l "
            "FROM e GROUP BY 1), "
            "mx AS (SELECT max(day) AS m FROM e), "
            "d AS (SELECT l - f AS dur, "
            "CASE WHEN l = m THEN 1 ELSE 0 END AS cens FROM u, mx), "
            "h AS (SELECT dur, CAST(count(*) FILTER (WHERE cens = 0) "
            "AS BIGINT) AS deaths, CAST(count(*) AS BIGINT) AS total "
            "FROM d GROUP BY 1), "
            "r AS (SELECT dur, deaths, CAST((SELECT sum(h2.total) "
            "FROM h h2 WHERE h2.dur >= h.dur) AS BIGINT) AS at_risk "
            "FROM h WHERE deaths > 0) "
            "SELECT dur, deaths, at_risk, "
            "product(1.0 - CAST(deaths AS DOUBLE) / "
            "CAST(at_risk AS DOUBLE)) OVER (ORDER BY dur "
            "ROWS UNBOUNDED PRECEDING) AS survival FROM r"
        ),
        "mwu_click_view": (
            # tie-corrected Mann-Whitney U + KS D from the distinct-
            # value histogram, HUGEINT rank/tie arithmetic
            "WITH c AS (SELECT CAST(floor(value * 100) AS BIGINT) "
            "AS x, event_type AS v FROM events "
            "WHERE event_type IN ('click', 'view') "
            "AND value IS NOT NULL), "
            "h AS (SELECT x, CAST(count(*) FILTER (WHERE v = 'click') "
            "AS BIGINT) AS ca, CAST(count(*) FILTER ("
            "WHERE v = 'view') AS BIGINT) AS cb FROM c GROUP BY 1), "
            "o AS (SELECT x, ca, cb, ca + cb AS t, "
            "CAST(coalesce(sum(ca + cb) OVER (ORDER BY x "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) "
            "AS BIGINT) AS cumb, "
            "CAST(sum(ca) OVER (ORDER BY x ROWS UNBOUNDED PRECEDING) "
            "AS BIGINT) AS cuma_run, "
            "CAST(sum(cb) OVER (ORDER BY x ROWS UNBOUNDED PRECEDING) "
            "AS BIGINT) AS cumb_run FROM h), "
            "tot AS (SELECT CAST(sum(ca) AS BIGINT) AS na, "
            "CAST(sum(cb) AS BIGINT) AS nb FROM h), "
            "agg AS (SELECT sum(CAST(ca AS HUGEINT) * "
            "(2 * cumb + t + 1)) AS two_ua, "
            "sum(CAST(t AS HUGEINT) * t * t - t) AS tie, "
            "max(abs(CAST(cuma_run AS DOUBLE) / "
            "(SELECT CAST(na AS DOUBLE) FROM tot) - "
            "CAST(cumb_run AS DOUBLE) / "
            "(SELECT CAST(nb AS DOUBLE) FROM tot))) AS ks_d FROM o), "
            "fin AS (SELECT t.na, t.nb, "
            "CAST(a.two_ua - CAST(t.na AS HUGEINT) * (t.na + 1) "
            "AS DOUBLE) / 2.0 AS u_a, "
            "CAST(t.na AS DOUBLE) * CAST(t.nb AS DOUBLE) / 2.0 AS mu, "
            "CAST(CAST(t.na AS HUGEINT) * t.nb AS DOUBLE) * "
            "(CAST(t.na + t.nb + 1 AS DOUBLE) - CAST(a.tie AS DOUBLE) "
            "/ CAST(CAST(t.na + t.nb AS HUGEINT) * "
            "(t.na + t.nb - 1) AS DOUBLE)) / 12.0 AS vr, "
            "a.ks_d FROM tot t, agg a) "
            "SELECT na AS n_a, nb AS n_b, u_a, "
            "CASE WHEN vr > 0 THEN (u_a - mu) / sqrt(vr) END AS z, "
            "ks_d FROM fin"
        ),
        "late_events": (
            # watermark = running max event time over arrival order
            "WITH w AS (SELECT event_id, ts, epoch_us(max(ts) OVER ("
            "ORDER BY event_id ROWS UNBOUNDED PRECEDING)) - "
            "epoch_us(ts) AS late_us FROM events) "
            "SELECT epoch_us(ts) // 86400000000 AS day, "
            "CAST(count(*) AS BIGINT) AS n_events, "
            "CAST(count(*) FILTER (WHERE late_us > 3600000000) "
            "AS BIGINT) AS n_late, "
            "CAST(max(late_us) AS BIGINT) AS max_late_us "
            "FROM w GROUP BY 1"
        ),
        "wmedian_qty": (
            # lower weighted median over the compressed (group, value)
            # weight histogram, integer cents exact
            "WITH c AS (SELECT l_returnflag AS g, l_quantity AS v, "
            "CAST(floor(l_extendedprice * 100) AS BIGINT) AS w "
            "FROM lineitem WHERE l_quantity IS NOT NULL "
            "AND l_extendedprice IS NOT NULL), "
            "a AS (SELECT g, v, CAST(sum(w) AS BIGINT) AS wv "
            "FROM c GROUP BY 1, 2), "
            "r AS (SELECT g, v, wv, CAST(sum(wv) OVER (PARTITION BY g "
            "ORDER BY v ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cw, "
            "CAST(sum(wv) OVER (PARTITION BY g) AS BIGINT) AS tw "
            "FROM a) "
            "SELECT g AS l_returnflag, max(tw) AS total_w_cents, "
            "min(CASE WHEN 2 * cw >= tw THEN v END) AS wmedian "
            "FROM r GROUP BY 1"
        ),
        "quota_docs": (
            # Hamilton largest-remainder apportionment in HUGEINT
            "WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n "
            "FROM documents GROUP BY 1), "
            "t AS (SELECT source, n, CAST(10000 AS HUGEINT) * n AS q, "
            "sum(n) OVER () AS tot FROM c), "
            "b AS (SELECT source, n, CAST(q // tot AS BIGINT) "
            "AS base, q % tot AS rem FROM t), "
            "r AS (SELECT source, n, base, rem, row_number() OVER ("
            "ORDER BY rem DESC, source) AS rk, "
            "sum(base) OVER () AS basesum FROM b) "
            "SELECT source, n AS n_docs, CAST(base + CASE WHEN "
            "rk <= 10000 - basesum THEN 1 ELSE 0 END AS BIGINT) "
            "AS alloc FROM r"
        ),
        "melt_lineitem": (
            "SELECT l_orderkey, l_linenumber, 'l_quantity' AS "
            "variable, CAST(l_quantity AS DOUBLE) AS value "
            "FROM lineitem "
            "UNION ALL SELECT l_orderkey, l_linenumber, "
            "'l_extendedprice', CAST(l_extendedprice AS DOUBLE) "
            "FROM lineitem "
            "UNION ALL SELECT l_orderkey, l_linenumber, "
            "'l_discount', CAST(l_discount AS DOUBLE) FROM lineitem "
            "UNION ALL SELECT l_orderkey, l_linenumber, "
            "'l_tax', CAST(l_tax AS DOUBLE) FROM lineitem"
        ),
        "dq_orders": (
            "SELECT 'fk:o_custkey' AS \"constraint\", "
            "CAST(count(*) FILTER (WHERE o_custkey IS NOT NULL AND "
            "o_custkey NOT IN (SELECT c_custkey FROM customer "
            "WHERE c_custkey IS NOT NULL)) AS BIGINT) "
            "AS n_violations FROM orders "
            "UNION ALL SELECT 'not_null:o_orderdate', "
            "CAST(count(*) FILTER (WHERE o_orderdate IS NULL) "
            "AS BIGINT) FROM orders "
            "UNION ALL SELECT 'positive:o_totalprice', "
            "CAST(count(*) FILTER (WHERE o_totalprice IS NULL OR "
            "o_totalprice <= 0) AS BIGINT) FROM orders "
            "UNION ALL SELECT 'unique:o_orderkey', "
            "CAST(count(o_orderkey) - count(DISTINCT o_orderkey) "
            "AS BIGINT) FROM orders ORDER BY 1"
        ),
        "khop_parts": (
            # recursive CTE with UNION (set) semantics bounds rows by
            # nodes x hops; min(hop) = BFS level, matching the
            # broadcast-frontier engine exactly
            "WITH RECURSIVE li AS (SELECT l_orderkey, l_partkey "
            "  FROM lineitem "
            "  WHERE l_shipdate >= TIMESTAMP '1998-01-01'), "
            "e AS (SELECT DISTINCT l1.l_partkey AS a, "
            "  l2.l_partkey AS b FROM li l1 JOIN li l2 "
            "  ON l1.l_orderkey = l2.l_orderkey "
            "  AND l1.l_partkey < l2.l_partkey), "
            "sym AS (SELECT a, b FROM e "
            "  UNION ALL SELECT b, a FROM e), "
            "seeds AS (SELECT DISTINCT l_partkey AS node FROM li "
            "  WHERE l_partkey % 97 = 0), "
            "r(node, hop) AS (SELECT node, 0 FROM seeds "
            "  UNION SELECT sym.b, r.hop + 1 FROM r "
            "  JOIN sym ON sym.a = r.node WHERE r.hop < 2) "
            "SELECT node, CAST(min(hop) AS BIGINT) AS hop FROM r "
            "GROUP BY node"
        ),
        "orders_in_flight": (
            # n_active(t) = #(starts <= t) - #(ends <= t); RANGE
            # frames make equal-time boundaries peer-inclusive, the
            # engine's tie rule (end at t no longer active)
            "WITH iv AS (SELECT o_orderkey AS okey, "
            "epoch_us(o_orderdate) AS s, "
            "epoch_us(o_orderdate) + 604800000000 AS e FROM orders), "
            "b AS (SELECT okey, s AS t, 1 AS is_start FROM iv "
            "UNION ALL SELECT okey, e, 0 FROM iv), "
            "w AS (SELECT okey, t, is_start, "
            "count(*) FILTER (WHERE is_start = 1) OVER (ORDER BY t "
            "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) "
            "AS c_s, "
            "count(*) FILTER (WHERE is_start = 0) OVER (ORDER BY t "
            "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) "
            "AS c_e FROM b) "
            "SELECT okey, CAST(c_s - c_e AS BIGINT) AS n_active "
            "FROM w WHERE is_start = 1"
        ),
        "interp_at_orders": (
            # bracketing events via correlated subqueries with the
            # engine's tie rules; the lerp is the identical IEEE
            # float64 expression (int64 diffs, one division)
            "WITH p AS (SELECT o.o_orderkey, "
            "epoch_us(o.o_orderdate) AS tq, "
            "(SELECT epoch_us(e.ts) FROM events e WHERE e.user_id = "
            "o.o_custkey AND e.ts <= o.o_orderdate ORDER BY e.ts "
            "DESC, e.event_id DESC LIMIT 1) AS tp, "
            "(SELECT e.value FROM events e WHERE e.user_id = "
            "o.o_custkey AND e.ts <= o.o_orderdate ORDER BY e.ts "
            "DESC, e.event_id DESC LIMIT 1) AS vp, "
            "(SELECT epoch_us(e.ts) FROM events e WHERE e.user_id = "
            "o.o_custkey AND e.ts >= o.o_orderdate ORDER BY e.ts "
            "ASC, e.event_id ASC LIMIT 1) AS tn, "
            "(SELECT e.value FROM events e WHERE e.user_id = "
            "o.o_custkey AND e.ts >= o.o_orderdate ORDER BY e.ts "
            "ASC, e.event_id ASC LIMIT 1) AS vn FROM orders o) "
            "SELECT o_orderkey, tp AS t_prev_us, vp AS v_prev, "
            "tn AS t_next_us, vn AS v_next, "
            "CASE WHEN tp IS NOT NULL AND tn IS NOT NULL "
            "AND tp <> tn THEN vp + (vn - vp) * "
            "(CAST(tq - tp AS DOUBLE) / CAST(tn - tp AS DOUBLE)) "
            "WHEN tp IS NOT NULL THEN vp "
            "WHEN tn IS NOT NULL THEN vn ELSE NULL END AS v_interp "
            "FROM p"
        ),
        "phrase_search": (
            # overlapping token-adjacency hits: the n-gram equality,
            # not a substring LIKE (which ignores token boundaries)
            "WITH t AS (SELECT doc_id, regexp_extract_all("
            "coalesce(text, ''), '\\S+') AS tk FROM documents), "
            "g AS (SELECT doc_id, unnest(list_transform("
            "generate_series(1, len(tk) - 1), "
            "i -> concat_ws(' ', tk[i], tk[i+1]))) AS gram FROM t "
            "WHERE len(tk) >= 2) "
            "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hits "
            "FROM g WHERE gram = 'table hash' GROUP BY doc_id"
        ),
        "mlm_mask": (
            # identical md5 PRF over (doc_id, 1-based ordinal); label
            # string coalesces to '' for unmasked/empty docs
            "WITH t AS (SELECT doc_id, regexp_extract_all("
            "coalesce(text, ''), '\\S+') AS tk FROM documents), "
            "tok AS (SELECT doc_id, unnest(tk) AS tok, "
            "unnest(generate_series(1, len(tk))) AS j FROM t), "
            "m AS (SELECT doc_id, j, tok, "
            "('0x' || substr(md5(doc_id || ':' || j), 1, 8))::BIGINT "
            "% 100 < 15 AS is_m FROM tok), "
            "agg AS (SELECT doc_id, "
            "string_agg(CASE WHEN is_m THEN '<MASK>' ELSE tok END, "
            "' ' ORDER BY j) AS corrupted, "
            "coalesce(string_agg(CASE WHEN is_m THEN tok END, '|' "
            "ORDER BY j), '') AS labels, "
            "CAST(count(*) FILTER (WHERE is_m) AS BIGINT) AS n_masked "
            "FROM m GROUP BY doc_id) "
            "SELECT d.doc_id, coalesce(a.corrupted, '') AS corrupted, "
            "coalesce(a.labels, '') AS labels, "
            "CAST(coalesce(a.n_masked, 0) AS BIGINT) AS n_masked "
            "FROM documents d LEFT JOIN agg a USING (doc_id)"
        ),
        "gini_priority": (
            # rank-weighted sum is tie-invariant, so row_number over
            # ties in any order yields the same integer sums
            "WITH c AS (SELECT o_orderpriority, "
            "CAST(floor(o_totalprice * 100) AS BIGINT) AS v "
            "FROM orders), "
            "r AS (SELECT o_orderpriority, v, row_number() OVER ("
            "PARTITION BY o_orderpriority ORDER BY v) AS i FROM c), "
            "a AS (SELECT o_orderpriority, "
            "CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(v) AS BIGINT) AS s, "
            "CAST(sum(i * v) AS BIGINT) AS iv "
            "FROM r GROUP BY o_orderpriority) "
            "SELECT o_orderpriority, n, s AS sum_q, "
            "2 * iv - (n + 1) * s AS gini_num, n * s AS gini_den, "
            "(2 * iv - (n + 1) * s) / (1.0 * n * s) AS gini FROM a"
        ),
        "price_band_pairs": (
            # same banded plan as the engine (a naive inequality
            # self-join is quadratic on both sides): replicate to the
            # three neighbor bands, equality-join on the band, exact
            # |diff| filter; id_a < id_b keeps each pair once
            "WITH o AS (SELECT o_orderkey AS id, "
            "  CAST(floor(o_totalprice * 100) AS BIGINT) AS c "
            "  FROM orders), "
            "b AS (SELECT id, c, c // 500 AS band FROM o), "
            "r AS (SELECT id, c, band FROM b "
            "  UNION ALL SELECT id, c, band + 1 FROM b "
            "  UNION ALL SELECT id, c, band - 1 FROM b) "
            "SELECT a.id AS id_a, a.c AS val_a, x.id AS id_b, "
            "x.c AS val_b FROM r a JOIN b x ON a.band = x.band "
            "AND abs(a.c - x.c) <= 500 AND a.id < x.id"
        ),
        "decay_score": (
            # same integer rule: cents = floor(value*100), age days
            # clamped to [0, 31], weight = 1 << (31 - age); the only
            # float op is the final division
            "WITH q AS (SELECT user_id, "
            "CAST(floor(value * 100) AS BIGINT) * "
            "(CAST(1 AS BIGINT) << CAST(31 - least(greatest("
            "(1706745600000000 - epoch_us(ts)) // 86400000000, 0), 31)"
            " AS INTEGER)) AS contrib FROM events) "
            "SELECT user_id, CAST(count(*) AS BIGINT) AS n_events, "
            "CAST(sum(contrib) AS BIGINT) AS decayed_q, "
            "CAST(sum(contrib) AS BIGINT) / (100.0 * "
            "(CAST(1 AS BIGINT) << 31)) AS decay_score "
            "FROM q GROUP BY user_id"
        ),
        "part_triangles": (
            # ordered edge orientation (a < b) counts each triangle
            # once; per-node counts unnest the three corners
            "WITH li AS (SELECT l_orderkey, l_partkey FROM lineitem "
            "  WHERE l_shipdate >= TIMESTAMP '1998-01-01'), "
            "e AS (SELECT DISTINCT l1.l_partkey AS a, "
            "  l2.l_partkey AS b FROM li l1 JOIN li l2 "
            "  ON l1.l_orderkey = l2.l_orderkey "
            "  AND l1.l_partkey < l2.l_partkey), "
            "tri AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z "
            "  FROM e e1 JOIN e e2 ON e1.b = e2.a "
            "  JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b) "
            "SELECT node, CAST(count(*) AS BIGINT) AS n_tri FROM ("
            "  SELECT x AS node FROM tri UNION ALL "
            "  SELECT y FROM tri UNION ALL SELECT z FROM tri) "
            "GROUP BY node"
        ),
        "error_bursts": (
            # gaps-and-islands over hot tumbling windows: consecutive
            # hot windows share (w - row_number)
            "WITH w AS (SELECT epoch_us(ts) // 900000000 AS w, "
            "  CAST(count(*) AS BIGINT) AS n FROM events "
            "  WHERE event_type = 'error' GROUP BY 1), "
            "hot AS (SELECT w, n FROM w WHERE n >= 3), "
            "isl AS (SELECT w, n, w - row_number() OVER (ORDER BY w) "
            "  AS grp FROM hot), "
            "b AS (SELECT grp, min(w) AS w_start, max(w) AS w_end, "
            "  CAST(count(*) AS BIGINT) AS n_windows, "
            "  CAST(sum(n) AS BIGINT) AS total_events, "
            "  max(n) AS peak_events FROM isl GROUP BY grp) "
            "SELECT CAST(row_number() OVER (ORDER BY w_start) "
            "AS BIGINT) AS burst_id, w_start, w_end, n_windows, "
            "total_events, peak_events FROM b"
        ),
        "log_templates": (
            # same mask chain as stages/textan.DEFAULT_TEMPLATE_MASKS,
            # in the same order (hex and UUID before bare numbers);
            # RE2 syntax shared by pyarrow and DuckDB
            "WITH lines AS (SELECT unnest(string_split("
            "  coalesce(text, ''), chr(10))) AS line FROM documents), "
            "nz AS (SELECT line FROM lines WHERE line <> ''), "
            "m AS (SELECT line, regexp_replace(regexp_replace("
            "regexp_replace(line, '0x[0-9a-fA-F]+', '<HEX>', 'g'), "
            "'\\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}"
            "-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\\b', '<UUID>', 'g'), "
            "'[0-9]+', '<N>', 'g') AS template FROM nz) "
            "SELECT template, CAST(count(*) AS BIGINT) AS n, "
            "min(line) AS example FROM m GROUP BY template "
            "ORDER BY n DESC, template LIMIT 50"
        ),
        "multiline_records": (
            # continuation = leading space/tab; record id = running
            # count of record-start lines within the document
            "WITH lines AS (SELECT doc_id, unnest(ls) AS line, "
            "  unnest(generate_series(1, len(ls))) AS li "
            "  FROM (SELECT doc_id, string_split(coalesce(text, ''), "
            "    chr(10)) AS ls FROM documents)), "
            "m AS (SELECT doc_id, li, line, CASE WHEN "
            "  regexp_matches(line, '^[\\t ]') THEN 0 ELSE 1 END "
            "  AS st FROM lines), "
            "r AS (SELECT doc_id, li, line, CAST(sum(st) OVER ("
            "  PARTITION BY doc_id ORDER BY li "
            "  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS rec_idx "
            "  FROM m) "
            "SELECT doc_id, rec_idx, string_agg(line, chr(10) "
            "ORDER BY li) AS rec_text, "
            "CAST(count(*) AS BIGINT) AS n_lines "
            "FROM r GROUP BY doc_id, rec_idx"
        ),
        "line_dedup": (
            # same definition (and the same planted boilerplate) as
            # the engine: newline-split lines, a non-empty line in
            # >= 2 distinct docs is banned everywhere, docs rebuilt
            # from kept lines in order
            "WITH planted AS (SELECT doc_id, coalesce(text, '') || "
            "  chr(10) || 'BOILERPLATE-' || "
            "  CAST(doc_id % 7 AS VARCHAR) || chr(10) AS text "
            "  FROM documents), "
            "lines AS (SELECT doc_id, unnest(ls) AS line, "
            "  unnest(generate_series(1, len(ls))) AS li "
            "  FROM (SELECT doc_id, string_split(coalesce(text, ''), "
            "    chr(10)) AS ls FROM planted)), "
            "df AS (SELECT line, count(DISTINCT doc_id) AS d "
            "  FROM lines WHERE line <> '' GROUP BY line), "
            "banned AS (SELECT line FROM df WHERE d >= 2), "
            "kept AS (SELECT l.doc_id, l.li, l.line FROM lines l "
            "  WHERE l.line = '' OR l.line NOT IN "
            "    (SELECT line FROM banned)), "
            "agg AS (SELECT doc_id, string_agg(line, chr(10) "
            "  ORDER BY li) AS clean_text, count(*) AS n_kept "
            "  FROM kept GROUP BY doc_id), "
            "tot AS (SELECT doc_id, count(*) AS n FROM lines "
            "  GROUP BY doc_id) "
            "SELECT d.doc_id, "
            "coalesce(a.clean_text, '') AS clean_text, "
            "CAST(t.n - coalesce(a.n_kept, 0) AS BIGINT) AS n_removed "
            "FROM planted d JOIN tot t USING (doc_id) "
            "LEFT JOIN agg a USING (doc_id)"
        ),
        "quality": (
            "SELECT doc_id, "
            "list_sum(list_transform(regexp_extract_all(text, '\\S+'), "
            "x -> length(x))) * 1.0 / len(regexp_extract_all(text, '\\S+')) "
            "AS mean_token_len, "
            "(length(text) - length(replace(text, ' ', ''))) * 1.0 / "
            "length(text) AS space_ratio, "
            "len(list_distinct(regexp_extract_all(text, '\\S+'))) * 1.0 / "
            "len(regexp_extract_all(text, '\\S+')) AS distinct_token_ratio "
            "FROM documents"
        ),
        "lang_hist": "SELECT lang, count(*) AS n FROM documents GROUP BY lang",
        "lang_pred": _lang_pred_sql(),
        "fingerprint": (
            "SELECT doc_id, CAST(list_reduce("
            "  list_prepend(CAST(0 AS HUGEINT),"
            "    list_transform("
            "      regexp_extract_all(array_to_string("
            "        regexp_extract_all(text, '\\S+'), ' '), '.'),"
            "      c -> CAST(unicode(c) AS HUGEINT))),"
            "  (h, c) -> (h * 1000003 + c) % 2305843009213693951"
            ") AS UBIGINT) AS fingerprint FROM documents"
        ),
        "seq_histogram": _seq_histogram_sql(t),
        "turn_events": _turn_events_sql(t),
        "conv_fingerprint": (
            "SELECT conv_id, "
            "md5(string_agg(text, chr(10) ORDER BY turn_idx)) AS conv_hash, "
            f"count(*) AS n_turns FROM {t} GROUP BY conv_id"
        ),
        "simhash": _simhash_sql(),
        "event_quantiles": (
            # discrete percentiles pick actual elements -> doubles
            # match bit-for-bit across engines
            "SELECT event_type, "
            "percentile_disc(0.5) WITHIN GROUP (ORDER BY value) AS p50, "
            "percentile_disc(0.95) WITHIN GROUP (ORDER BY value) AS p95 "
            "FROM events GROUP BY event_type"
        ),
        "epoch_upsample": (
            # reps = em//1000 (+1 if fmix32(doc_id) % 1000 < em%1000);
            # em <= 2500 so reps <= 3 and range(0,4) covers every copy
            "WITH d AS (SELECT doc_id, source, 250 * (1 + "
            "  (CAST(substr(source, 4) AS BIGINT) % 10)) AS em "
            "  FROM documents), "
            "h0 AS (SELECT doc_id, source, em, "
            "  doc_id & 2147483647 AS h FROM d), "
            "h1 AS (SELECT doc_id, source, em, xor(h, h >> 16) AS h "
            "  FROM h0), "
            "h2 AS (SELECT doc_id, source, em, CAST((CAST(h AS "
            "  HUGEINT) * 2246822507) % 4294967296 AS BIGINT) AS h "
            "  FROM h1), "
            "h3 AS (SELECT doc_id, source, em, xor(h, h >> 13) AS h "
            "  FROM h2), "
            "h4 AS (SELECT doc_id, source, em, CAST((CAST(h AS "
            "  HUGEINT) * 3266489909) % 4294967296 AS BIGINT) AS h "
            "  FROM h3), "
            "h5 AS (SELECT doc_id, source, em, xor(h, h >> 16) AS h "
            "  FROM h4), "
            "r AS (SELECT doc_id, source, em // 1000 + "
            "  (CASE WHEN h % 1000 < em % 1000 THEN 1 ELSE 0 END) "
            "  AS reps FROM h5) "
            "SELECT doc_id, source, i AS epoch "
            "FROM r, range(0, 4) t(i) WHERE i < reps"
        ),
        "zscore": (
            # integer-exact moments (sum(BIGINT) is HUGEINT), then the
            # same IEEE op sequence as the engine: mean = S/n,
            # std = sqrt(double(n*SS - S*S))/n, z = (c - mean)/std;
            # division/sqrt/subtract are correctly rounded, so doubles
            # match bit-for-bit
            "WITH c AS (SELECT event_id, event_type, "
            "  CAST(floor(value * 100) AS BIGINT) AS c FROM events), "
            "m AS (SELECT event_type, count(*) AS n, sum(c) AS s, "
            "  sum(c*c) AS ss FROM c GROUP BY event_type), "
            "ms AS (SELECT event_type, CAST(s AS DOUBLE) / n AS mean, "
            "  sqrt(CAST(n*ss - s*s AS DOUBLE)) / n AS std FROM m) "
            "SELECT c.event_id, c.event_type, "
            "  CASE WHEN ms.std > 0 THEN "
            "    (CAST(c.c AS DOUBLE) - ms.mean) / ms.std "
            "  ELSE NULL END AS z "
            "FROM c JOIN ms USING (event_type)"
        ),
        "winsorize": (
            # same fmix32 sample chain as sampled_quantiles -> per-type
            # disc p95 threshold -> LEAST clip (LEFT JOIN + infinity
            # coalesce mirrors the engine's "no sampled rows -> no
            # clip" rule)
            "WITH h0 AS (SELECT event_type, value, "
            "  event_id & 2147483647 AS h FROM events), "
            "h1 AS (SELECT event_type, value, xor(h, h >> 16) AS h "
            "  FROM h0), "
            "h2 AS (SELECT event_type, value, CAST((CAST(h AS HUGEINT) "
            "  * 2246822507) % 4294967296 AS BIGINT) AS h FROM h1), "
            "h3 AS (SELECT event_type, value, xor(h, h >> 13) AS h "
            "  FROM h2), "
            "h4 AS (SELECT event_type, value, CAST((CAST(h AS HUGEINT) "
            "  * 3266489909) % 4294967296 AS BIGINT) AS h FROM h3), "
            "h5 AS (SELECT event_type, value, xor(h, h >> 16) AS h "
            "  FROM h4), "
            "thr AS (SELECT event_type, "
            "  percentile_disc(0.95) WITHIN GROUP (ORDER BY value) "
            "    AS t "
            "  FROM h5 WHERE h % 4 = 0 GROUP BY event_type) "
            "SELECT e.event_id, e.event_type, "
            "  LEAST(e.value, COALESCE(thr.t, 'infinity'::DOUBLE)) "
            "    AS value_w "
            "FROM events e LEFT JOIN thr USING (event_type)"
        ),
        "cms_counts": (
            # the exact same 4x1024 count-min table, built in SQL:
            # per (row-hash i, position) counts, probe keys take the
            # min over i with missing counters as 0.  The xor salt
            # i*0x5BD1E995 is applied before the 31-bit mask, exactly
            # as the numpy side does.
            "WITH ik AS (SELECT i FROM range(0, 4) t(i)), "
            "h0 AS (SELECT i, xor(user_id & 2147483647, "
            "  i * 1540483477) & 2147483647 AS h "
            "  FROM events CROSS JOIN ik), "
            "h1 AS (SELECT i, xor(h, h >> 16) AS h FROM h0), "
            "h2 AS (SELECT i, CAST((CAST(h AS HUGEINT) * 2246822507) "
            "  % 4294967296 AS BIGINT) AS h FROM h1), "
            "h3 AS (SELECT i, xor(h, h >> 13) AS h FROM h2), "
            "h4 AS (SELECT i, CAST((CAST(h AS HUGEINT) * 3266489909) "
            "  % 4294967296 AS BIGINT) AS h FROM h3), "
            "h5 AS (SELECT i, xor(h, h >> 16) AS h FROM h4), "
            "c AS (SELECT i, h % 1024 AS pos, count(*) AS cnt "
            "  FROM h5 GROUP BY i, pos), "
            "pk AS (SELECT u.user_id, ik.i FROM range(1, 33) "
            "  u(user_id) CROSS JOIN ik), "
            "p0 AS (SELECT user_id, i, xor(user_id & 2147483647, "
            "  i * 1540483477) & 2147483647 AS h FROM pk), "
            "p1 AS (SELECT user_id, i, xor(h, h >> 16) AS h FROM p0), "
            "p2 AS (SELECT user_id, i, CAST((CAST(h AS HUGEINT) "
            "  * 2246822507) % 4294967296 AS BIGINT) AS h FROM p1), "
            "p3 AS (SELECT user_id, i, xor(h, h >> 13) AS h FROM p2), "
            "p4 AS (SELECT user_id, i, CAST((CAST(h AS HUGEINT) "
            "  * 3266489909) % 4294967296 AS BIGINT) AS h FROM p3), "
            "p5 AS (SELECT user_id, i, xor(h, h >> 16) AS h FROM p4), "
            "pp AS (SELECT user_id, i, h % 1024 AS pos FROM p5) "
            "SELECT user_id, "
            "  CAST(min(coalesce(cnt, 0)) AS BIGINT) AS est "
            "FROM pp LEFT JOIN c USING (i, pos) GROUP BY user_id"
        ),
        "sampled_quantiles": (
            # identical fmix32 hash chain as approx_distinct_users
            # (HUGEINT multiplies keep mod-2^32 exact); both engines
            # then take percentile_disc over the SAME sample
            "WITH h0 AS (SELECT event_type, value, "
            "  event_id & 2147483647 AS h FROM events), "
            "h1 AS (SELECT event_type, value, xor(h, h >> 16) AS h "
            "  FROM h0), "
            "h2 AS (SELECT event_type, value, CAST((CAST(h AS HUGEINT) "
            "  * 2246822507) % 4294967296 AS BIGINT) AS h FROM h1), "
            "h3 AS (SELECT event_type, value, xor(h, h >> 13) AS h "
            "  FROM h2), "
            "h4 AS (SELECT event_type, value, CAST((CAST(h AS HUGEINT) "
            "  * 3266489909) % 4294967296 AS BIGINT) AS h FROM h3), "
            "h5 AS (SELECT event_type, value, xor(h, h >> 16) AS h "
            "  FROM h4) "
            "SELECT event_type, "
            "  percentile_disc(0.5) WITHIN GROUP (ORDER BY value) "
            "    AS p50, "
            "  percentile_disc(0.95) WITHIN GROUP (ORDER BY value) "
            "    AS p95 "
            "FROM h5 WHERE h % 4 = 0 GROUP BY event_type"
        ),
        "heavy_hitters": (
            # exact mirror of the two-pass MG result: frequency
            # strictly above N/k via the same integer comparison
            "SELECT user_id, count(*) AS n FROM events "
            "GROUP BY user_id "
            "HAVING count(*) * 2000 > (SELECT count(*) FROM events)"
        ),
        "simhash_clusters": (
            # exact edge set (full-recall banding) folded by the same
            # recursive-CTE component construction as dup_clusters
            "WITH RECURSIVE sh AS ({}), "
            "edges AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b "
            "  FROM sh a JOIN sh b ON a.doc_id < b.doc_id "
            "  WHERE bit_count(xor(a.simhash, b.simhash)) <= 3), "
            "reach(node, lab) AS ("
            "  SELECT doc_id, doc_id FROM documents "
            "  UNION "
            "  SELECT CASE WHEN r.node = e.doc_b THEN e.doc_a "
            "         ELSE e.doc_b END, r.lab "
            "  FROM reach r JOIN edges e "
            "  ON r.node = e.doc_a OR r.node = e.doc_b) "
            "SELECT node AS doc_id, CAST(min(lab) AS BIGINT) AS cluster_id, "
            "(min(lab) = node) AS canonical FROM reach "
            "GROUP BY node".format(_simhash_sql())
        ),
        "simhash_dups": (
            # all-pairs hamming over the same simhash CTE; exact
            # because the engine's pigeonhole banding has full recall
            "WITH sh AS ({}) "
            "SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
            "CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) "
            "AS hamming "
            "FROM sh a JOIN sh b ON a.doc_id < b.doc_id "
            "WHERE bit_count(xor(a.simhash, b.simhash)) <= 3".format(
                _simhash_sql()
            )
        ),
        "twebber_hops": (
            # run-boundary formulation of the two-cursor alignment: in
            # the merged (pair, absolute-time) ordering, a hop fires at
            # the last frame of every same-side run except the final
            # one, targeting the next run's first local time; a virtual
            # earliest frame on the earlier-starting side reproduces
            # the cursor algorithm's last_local=0.0 initial state.
            # Exact when no cross-side absolute-time ties exist (holds
            # for this corpus; the cursor algorithm's tie rule is
            # state-dependent and not expressible as a static sort).
            "WITH f AS ("
            "  SELECT printf('pair%04d', user_id // 2) AS pair_id,"
            "  CASE WHEN user_id % 2 = 0 THEN 'left' ELSE 'right' END AS side,"
            "  1000.0 + (user_id % 2) * 7.5 AS start_ts,"
            "  (epoch_us(ts) / 1000000.0) % 10000 AS frame_ts FROM events),"
            " pairs2 AS (SELECT pair_id FROM f GROUP BY pair_id"
            "  HAVING count(DISTINCT side) = 2),"
            " virt AS (SELECT pair_id, 'left' AS side, -1e18 AS abs_ts,"
            "  0.0 AS frame_ts FROM pairs2),"
            " merged AS (SELECT f.pair_id, side, start_ts + frame_ts AS abs_ts,"
            "  frame_ts FROM f JOIN pairs2 USING (pair_id)"
            "  UNION ALL SELECT * FROM virt),"
            " w AS (SELECT pair_id, side, frame_ts,"
            "  lead(side) OVER (PARTITION BY pair_id ORDER BY abs_ts, frame_ts)"
            "   AS nside,"
            "  lead(frame_ts) OVER (PARTITION BY pair_id ORDER BY abs_ts,"
            "   frame_ts) AS nts FROM merged)"
            " SELECT pair_id, side AS from_side, frame_ts AS from_ts,"
            " nts AS to_ts FROM w WHERE nside IS NOT NULL AND nside != side"
        ),
        "embedding_near_dups": (
            "SELECT vec_id AS doc_a, vec_id + 1000000 AS doc_b "
            "FROM embeddings"
        ),
        "token_jaccard": (
            "WITH toks AS (SELECT doc_id, "
            "list_distinct(regexp_extract_all(text, '\\S+')) AS t "
            "FROM documents) "
            "SELECT a.doc_id AS doc_a, "
            "len(list_intersect(a.t, b.t)) * 1.0 / "
            "(len(a.t) + len(b.t) - len(list_intersect(a.t, b.t))) "
            "AS jaccard "
            "FROM toks a JOIN toks b ON b.doc_id = a.doc_id + 1"
        ),
        "knn_bruteforce": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe "
            "FROM embeddings ORDER BY vec_id LIMIT 8) "
            "SELECT query_id, vec_id FROM ("
            "  SELECT q.query_id, e.vec_id, "
            "  row_number() OVER (PARTITION BY q.query_id ORDER BY "
            "  list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id) AS rk"
            "  FROM q CROSS JOIN embeddings e) WHERE rk <= 5"
        ),
        "sessionize": (
            "WITH flagged AS ("
            "  SELECT user_id, event_id, epoch_us(ts) AS tus, "
            "  CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER "
            "  (PARTITION BY user_id ORDER BY ts, event_id) > 1800000000 "
            "  THEN 1 ELSE 0 END AS new_sess FROM events), "
            "sessions AS ("
            "  SELECT user_id, tus, CAST(sum(new_sess) OVER ("
            "  PARTITION BY user_id ORDER BY tus, event_id "
            "  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id FROM flagged) "
            "SELECT user_id, session_id, count(*) AS n_events, "
            "min(tus) AS start_ts FROM sessions GROUP BY 1, 2"
        ),
        "events_agg": (
            "SELECT event_type, count(*) AS n, min(value) AS vmin, "
            "max(value) AS vmax FROM events GROUP BY event_type"
        ),
        "events_windowed": (
            "SELECT event_type, epoch_us(ts) // 3600000000 AS window, "
            "count(*) AS n, max(value) AS value_max "
            "FROM events GROUP BY 1, 2"
        ),
        "events_hopping": (
            # window w covers [w*hop, w*hop+size); an event at ts is in
            # windows floor(ts/hop)-3 .. floor(ts/hop) (size/hop = 4)
            "WITH x AS (SELECT event_type, value, "
            "unnest(generate_series(epoch_us(ts) // 900000000 - 3, "
            'epoch_us(ts) // 900000000)) AS "window" FROM events) '
            'SELECT event_type, "window", count(*) AS n, '
            "max(value) AS value_max FROM x GROUP BY 1, 2"
        ),
        "sample_docs": (
            # (doc_id & (2^31-1)) keeps the product under 2^62 so the
            # BIGINT arithmetic can never overflow -- the engine masks
            # identically (stages/events.py deterministic_sample)
            "SELECT doc_id FROM documents "
            "WHERE ((doc_id & 2147483647) * 2654435761) % 4294967296 "
            "< 429496729"
        ),
        "hopto_renumber": (
            # display = hop - #{suppressed <= hop}: the closed form of
            # the reference's per-hop suppress-list walk
            "WITH sup AS (SELECT DISTINCT doc_id * 11 AS s "
            "FROM documents) "
            "SELECT e.event_id, e.event_id - "
            "(SELECT count(*) FROM sup WHERE s <= e.event_id) "
            "AS display_cmd FROM events e"
        ),
        "quantize_ts": (
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
        ),
        "top_users": (
            "SELECT user_id, count(*) AS n FROM events GROUP BY user_id "
            "ORDER BY n DESC, user_id LIMIT 10"
        ),
        "orders_enrich": (
            "SELECT o.o_orderkey, c.c_name, n.n_name FROM orders o "
            "LEFT JOIN customer c ON o.o_custkey = c.c_custkey "
            "LEFT JOIN nation n ON c.c_nationkey = n.n_nationkey"
        ),
        "asof_last_order": (
            "SELECT e.event_id, ("
            "  SELECT o.o_orderkey FROM orders o "
            "  WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts "
            "  ORDER BY o.o_orderdate DESC, o.o_orderkey DESC LIMIT 1"
            ") AS last_orderkey FROM events e"
        ),
        "q1_pricing": (
            "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
            "count(*) AS count_order FROM lineitem GROUP BY 1, 2"
        ),
        "q3_join": (
            "SELECT l.l_orderkey, o.o_orderpriority, "
            "count(*) AS n_items, sum(l.l_quantity) AS sum_qty "
            "FROM lineitem l "
            "JOIN orders o ON l.l_orderkey = o.o_orderkey "
            "JOIN customer c ON o.o_custkey = c.c_custkey "
            "WHERE c.c_mktsegment = 'BUILDING' "
            "AND o.o_orderdate < TIMESTAMP '1998-06-01' "
            "AND l.l_shipdate > TIMESTAMP '1998-06-01' "
            "GROUP BY 1, 2"
        ),
        "longest_docs": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "QUALIFY row_number() OVER "
            "(PARTITION BY lang ORDER BY n_chars DESC, doc_id) <= 3"
        ),
        "grok_dialects": (
            "SELECT conv_id, turn_idx, "
            "CASE WHEN m1 THEN 'osc_title' WHEN m2 THEN 'mingw' END "
            "AS grok_tag, "
            "CASE WHEN m1 THEN regexp_extract(text, "
            "e'\\x1b\\\\]0;([a-z]+)@([A-Za-z0-9-]+): ([^\\x07]*)\\x07'"
            ", 1) WHEN m2 THEN regexp_extract(text, "
            "e'\\x1b\\\\[32m([a-z]+)@([A-Za-z0-9-]+) "
            "\\x1b\\\\[35mMINGW64 \\x1b\\\\[33m([^\\x1b]*)', 1) END "
            "AS \"user\", "
            "CASE WHEN m1 THEN regexp_extract(text, "
            "e'\\x1b\\\\]0;([a-z]+)@([A-Za-z0-9-]+): ([^\\x07]*)\\x07'"
            ", 2) WHEN m2 THEN regexp_extract(text, "
            "e'\\x1b\\\\[32m([a-z]+)@([A-Za-z0-9-]+) "
            "\\x1b\\\\[35mMINGW64 \\x1b\\\\[33m([^\\x1b]*)', 2) END "
            "AS host, "
            "CASE WHEN m1 THEN regexp_extract(text, "
            "e'\\x1b\\\\]0;([a-z]+)@([A-Za-z0-9-]+): ([^\\x07]*)\\x07'"
            ", 3) WHEN m2 THEN regexp_extract(text, "
            "e'\\x1b\\\\[32m([a-z]+)@([A-Za-z0-9-]+) "
            "\\x1b\\\\[35mMINGW64 \\x1b\\\\[33m([^\\x1b]*)', 3) END "
            "AS cwd "
            "FROM (SELECT conv_id, turn_idx, text, "
            "regexp_matches(text, "
            "e'\\x1b\\\\]0;([a-z]+)@([A-Za-z0-9-]+): ([^\\x07]*)\\x07'"
            ") AS m1, regexp_matches(text, "
            "e'\\x1b\\\\[32m([a-z]+)@([A-Za-z0-9-]+) "
            "\\x1b\\\\[35mMINGW64 \\x1b\\\\[33m([^\\x1b]*)') AS m2 "
            f"FROM {t})"
        ),
        "grok_prompt": (
            "SELECT conv_id, turn_idx, "
            "CASE WHEN m THEN regexp_extract(text, "
            "e'\\x1b\\\\]0;([a-z]+)@([A-Za-z0-9-]+): ([^\\x07]*)\\x07'"
            ", 1) END AS osc_user, "
            "CASE WHEN m THEN regexp_extract(text, "
            "e'\\x1b\\\\]0;([a-z]+)@([A-Za-z0-9-]+): ([^\\x07]*)\\x07'"
            ", 2) END AS osc_host, "
            "CASE WHEN m THEN regexp_extract(text, "
            "e'\\x1b\\\\]0;([a-z]+)@([A-Za-z0-9-]+): ([^\\x07]*)\\x07'"
            ", 3) END AS osc_cwd "
            "FROM (SELECT conv_id, turn_idx, text, regexp_matches(text,"
            " e'\\x1b\\\\]0;([a-z]+)@([A-Za-z0-9-]+): ([^\\x07]*)\\x07'"
            f") AS m FROM {t})"
        ),
        "funnel3": (
            "WITH s1 AS (SELECT user_id, min(epoch_us(ts)) AS s1_us "
            "FROM events WHERE event_type = 'signup' GROUP BY user_id), "
            "s2 AS (SELECT s1.user_id, s1.s1_us, "
            "(SELECT min(epoch_us(e.ts)) FROM events e "
            " WHERE e.user_id = s1.user_id AND e.event_type = 'view' "
            " AND epoch_us(e.ts) >= s1.s1_us) AS s2_us FROM s1), "
            "s3 AS (SELECT s2.user_id, s2.s1_us, s2.s2_us, "
            "CASE WHEN s2.s2_us IS NULL THEN NULL ELSE "
            "(SELECT min(epoch_us(e.ts)) FROM events e "
            " WHERE e.user_id = s2.user_id "
            " AND e.event_type = 'purchase' "
            " AND epoch_us(e.ts) >= s2.s2_us) END AS s3_us FROM s2) "
            "SELECT user_id, s1_us, s2_us, s3_us, "
            "coalesce(s3_us - s1_us <= 1209600000000, FALSE) "
            "AS converted FROM s3"
        ),
        "funnel": (
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
        ),
        "user_event_matrix": (
            "SELECT user_id, "
            "count(*) FILTER (WHERE event_type = 'click') AS n_click, "
            "count(*) FILTER (WHERE event_type = 'error') AS n_error, "
            "count(*) FILTER (WHERE event_type = 'purchase') "
            "AS n_purchase, "
            "count(*) FILTER (WHERE event_type = 'signup') AS n_signup, "
            "count(*) FILTER (WHERE event_type = 'view') AS n_view "
            "FROM events GROUP BY user_id"
        ),
        "rarest_token": (
            "WITH toks AS (SELECT doc_id, "
            "unnest(regexp_extract_all(text, '\\S+')) AS tok "
            "FROM documents), "
            "occ AS (SELECT DISTINCT doc_id, tok FROM toks), "
            "df AS (SELECT tok, count(*) AS df FROM occ GROUP BY tok) "
            "SELECT o.doc_id, o.tok AS rare_tok, d.df AS rare_df "
            "FROM occ o JOIN df d USING (tok) "
            "QUALIFY row_number() OVER "
            "(PARTITION BY o.doc_id ORDER BY d.df, o.tok) = 1"
        ),
        "order_week_events": (
            "SELECT o.o_orderkey, CAST(count(e.user_id) AS BIGINT) "
            "AS n_events FROM orders o LEFT JOIN events e "
            "ON e.user_id = o.o_custkey "
            "AND e.ts >= o.o_orderdate "
            "AND e.ts < o.o_orderdate + INTERVAL 7 DAY "
            "GROUP BY o.o_orderkey"
        ),
        "lang_rank": (
            "SELECT doc_id, lang, n_chars, "
            "CAST(dense_rank() OVER "
            "(PARTITION BY lang ORDER BY n_chars DESC) AS BIGINT) AS rnk "
            "FROM documents"
        ),
        "idf_rarity": (
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
        ),
        "postings": (
            "WITH raw AS (SELECT doc_id, "
            "unnest(regexp_extract_all(text, '\\S+')) AS tok "
            "FROM documents), "
            "toks AS (SELECT DISTINCT doc_id, tok FROM raw), "
            "df AS (SELECT tok, count(*) AS df FROM toks GROUP BY tok), "
            "r AS (SELECT tok, doc_id, row_number() OVER "
            "(PARTITION BY tok ORDER BY doc_id) AS rn FROM toks) "
            "SELECT d.tok, CAST(d.df AS BIGINT) AS df, "
            "string_agg(CAST(r.doc_id AS VARCHAR), ',' "
            "ORDER BY r.doc_id) AS posting "
            "FROM df d JOIN r USING (tok) "
            "WHERE r.rn <= 8 AND d.df >= 2 GROUP BY d.tok, d.df"
        ),
        "bpe_pairs": (
            # one BPE iteration's merge-candidate table: adjacent
            # char pairs inside tokens, occurrence-weighted;
            # generate_series(1,0) is empty so 1-char tokens drop on
            # both sides; ties by pair ascending
            "WITH toks AS (SELECT "
            "unnest(regexp_extract_all(text, '\\S+')) AS tok "
            "FROM documents), "
            "idx AS (SELECT tok, "
            "unnest(generate_series(1, length(tok) - 1)) AS i "
            "FROM toks), "
            "p AS (SELECT substr(tok, CAST(i AS INTEGER), 2) AS pair "
            "FROM idx), "
            "c AS (SELECT pair, count(*) AS n FROM p GROUP BY pair) "
            "SELECT pair, CAST(n AS BIGINT) AS n FROM c "
            "ORDER BY n DESC, pair LIMIT 50"
        ),
        "hash_embed": (
            # the same md5 feature-hash chain as the engine: first 8
            # hex chars -> dimension, 9th nibble -> sign; signed
            # counts cancelling to zero are dropped on both sides
            "WITH raw AS (SELECT doc_id, "
            "unnest(regexp_extract_all(text, '\\S+')) AS tok "
            "FROM documents), "
            "m AS (SELECT doc_id, "
            "('0x' || substr(md5(tok), 1, 8))::BIGINT % 64 AS dim, "
            "CASE WHEN ('0x' || substr(md5(tok), 9, 1))::BIGINT < 8 "
            "THEN 1 ELSE -1 END AS s FROM raw) "
            "SELECT doc_id, dim, CAST(sum(s) AS BIGINT) AS weight "
            "FROM m GROUP BY doc_id, dim HAVING sum(s) <> 0"
        ),
        "token_budget": (
            # the same 31-bit-masked multiplicative hash as
            # sample_docs; window SUM is the cumulative quota gate
            "WITH t AS (SELECT doc_id, lang, "
            "len(regexp_extract_all(text, '\\S+')) AS n_tokens, "
            "((doc_id & 2147483647) * 2654435761) % 4294967296 AS h "
            "FROM documents), "
            "c AS (SELECT doc_id, lang, n_tokens, "
            "sum(n_tokens) OVER (PARTITION BY lang ORDER BY h, doc_id) "
            "AS cum FROM t) "
            "SELECT doc_id, lang, CAST(n_tokens AS BIGINT) AS n_tokens, "
            "CAST(cum AS BIGINT) AS cum_tokens FROM c WHERE cum <= 2000"
        ),
        "dedup_minhash": (
            # Exact all-pairs ground truth: shingle sets and Jaccard
            # are list arithmetic in DuckDB.  The LSH output equals
            # this because every planted pair (deterministic
            # middle-token drop, J >= 0.91) is far above the LSH floor
            # and the verify step keeps exactly J >= 0.9.
            "WITH base AS (SELECT doc_id, "
            "  regexp_extract_all(text, '\\S+') AS toks FROM documents), "
            "pert AS (SELECT doc_id + 1000000 AS doc_id, "
            "  CASE WHEN len(toks) >= 60 "
            "  THEN list_concat(toks[1:len(toks)//2], "
            "       toks[len(toks)//2+2:]) "
            "  ELSE toks END AS toks FROM base), "
            "aug AS (SELECT doc_id, toks FROM base "
            "  UNION ALL SELECT doc_id, toks FROM pert), "
            "s AS (SELECT doc_id, list_distinct("
            "  CASE WHEN len(toks) < 3 "
            "  THEN [array_to_string(toks, ' ')] "
            "  ELSE list_transform(generate_series(1, len(toks)-2), "
            "    i -> concat_ws(' ', toks[i], toks[i+1], toks[i+2])) "
            "  END) AS sh FROM aug), "
            "j AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
            "  len(list_intersect(a.sh, b.sh)) AS i, "
            "  len(a.sh) + len(b.sh) AS t FROM s a, s b "
            "  WHERE a.doc_id < b.doc_id) "
            "SELECT doc_a, doc_b FROM j "
            "WHERE i * 1.0 / (t - i) >= 0.9"
        ),
        "dup_clusters": (
            # Same exact all-pairs ground-truth edge set as
            # dedup_minhash, folded into components by a recursive CTE:
            # (node, lab) is reachable-from, min(lab) per node is the
            # component minimum -- algorithm-independent of the
            # engine's distributed label propagation.
            "WITH RECURSIVE base AS (SELECT doc_id, "
            "  regexp_extract_all(text, '\\S+') AS toks FROM documents), "
            "pert AS (SELECT doc_id + 1000000 AS doc_id, "
            "  CASE WHEN len(toks) >= 60 "
            "  THEN list_concat(toks[1:len(toks)//2], "
            "       toks[len(toks)//2+2:]) "
            "  ELSE toks END AS toks FROM base), "
            "aug AS (SELECT doc_id, toks FROM base "
            "  UNION ALL SELECT doc_id, toks FROM pert), "
            "s AS (SELECT doc_id, list_distinct("
            "  CASE WHEN len(toks) < 3 "
            "  THEN [array_to_string(toks, ' ')] "
            "  ELSE list_transform(generate_series(1, len(toks)-2), "
            "    i -> concat_ws(' ', toks[i], toks[i+1], toks[i+2])) "
            "  END) AS sh FROM aug), "
            "j AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
            "  len(list_intersect(a.sh, b.sh)) AS i, "
            "  len(a.sh) + len(b.sh) AS t FROM s a, s b "
            "  WHERE a.doc_id < b.doc_id), "
            "edges AS (SELECT doc_a, doc_b FROM j "
            "  WHERE i * 1.0 / (t - i) >= 0.9), "
            "reach(node, lab) AS ("
            "  SELECT doc_id, doc_id FROM aug "
            "  UNION "
            "  SELECT CASE WHEN r.node = e.doc_b THEN e.doc_a "
            "         ELSE e.doc_b END, r.lab "
            "  FROM reach r JOIN edges e "
            "  ON r.node = e.doc_a OR r.node = e.doc_b) "
            "SELECT node AS doc_id, CAST(min(lab) AS BIGINT) AS cluster_id, "
            "(min(lab) = node) AS canonical FROM reach GROUP BY node"
        ),
        "semdedup": (
            # the kmeans CTE chain over the planted (copies) table,
            # then: drop any vector with a smaller-id cosine>=0.9
            # neighbor in its cluster
            "WITH base AS (SELECT vec_id, embedding FROM embeddings "
            "  UNION ALL SELECT vec_id + 100000, embedding "
            "  FROM embeddings WHERE vec_id % 5 = 0), "
            "emb AS (SELECT vec_id, embedding::DOUBLE[] AS v "
            "  FROM base), "
            "dim AS (SELECT max(len(v)) AS d FROM emb), "
            "init AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 "
            "  AS cluster, v FROM emb ORDER BY vec_id LIMIT 8), "
            "a1 AS (SELECT e.vec_id, i.cluster, "
            "  row_number() OVER (PARTITION BY e.vec_id "
            "    ORDER BY list_distance(e.v, i.v), i.cluster) AS rn "
            "  FROM emb e CROSS JOIN init i), "
            "asg1 AS (SELECT vec_id, cluster FROM a1 WHERE rn = 1), "
            "m1 AS (SELECT a.cluster, gs.i AS pos, avg(e.v[gs.i]) "
            "  AS val FROM emb e JOIN asg1 a USING (vec_id) "
            "  CROSS JOIN (SELECT unnest(generate_series(1, "
            "    (SELECT d FROM dim))) AS i) gs "
            "  GROUP BY a.cluster, gs.i), "
            "c1 AS (SELECT cluster, list(val ORDER BY pos) AS v "
            "  FROM m1 GROUP BY cluster), "
            "c1f AS (SELECT cluster, v FROM c1 UNION ALL "
            "  SELECT cluster, v FROM init "
            "  WHERE cluster NOT IN (SELECT cluster FROM c1)), "
            "a2 AS (SELECT e.vec_id, c.cluster, "
            "  row_number() OVER (PARTITION BY e.vec_id "
            "    ORDER BY list_distance(e.v, c.v), c.cluster) AS rn "
            "  FROM emb e CROSS JOIN c1f c), "
            "asg AS (SELECT vec_id, CAST(cluster AS BIGINT) "
            "  AS cluster FROM a2 WHERE rn = 1), "
            "dup AS (SELECT DISTINCT a.vec_id FROM asg a "
            "  JOIN asg b ON a.cluster = b.cluster "
            "    AND b.vec_id < a.vec_id "
            "  JOIN emb ea ON ea.vec_id = a.vec_id "
            "  JOIN emb eb ON eb.vec_id = b.vec_id "
            "  WHERE list_cosine_similarity(ea.v, eb.v) >= 0.9) "
            "SELECT a.vec_id, a.cluster, "
            "a.vec_id NOT IN (SELECT vec_id FROM dup) AS keep "
            "FROM asg a"
        ),
        "kmeans": (
            # Lloyd's unrolled: seed = 8 smallest vec_ids, assign by
            # euclidean argmin (ties toward the lower cluster id),
            # per-position centroid means, re-assign; distances in
            # DOUBLE on both sides.
            "WITH emb AS (SELECT vec_id, embedding::DOUBLE[] AS v "
            "  FROM embeddings), "
            "dim AS (SELECT max(len(v)) AS d FROM emb), "
            "init AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 "
            "  AS cluster, v FROM emb ORDER BY vec_id LIMIT 8), "
            "a1 AS (SELECT e.vec_id, i.cluster, "
            "  row_number() OVER (PARTITION BY e.vec_id "
            "    ORDER BY list_distance(e.v, i.v), i.cluster) AS rn "
            "  FROM emb e CROSS JOIN init i), "
            "asg1 AS (SELECT vec_id, cluster FROM a1 WHERE rn = 1), "
            "m1 AS (SELECT a.cluster, gs.i AS pos, avg(e.v[gs.i]) AS val "
            "  FROM emb e JOIN asg1 a USING (vec_id) "
            "  CROSS JOIN (SELECT unnest(generate_series(1, "
            "    (SELECT d FROM dim))) AS i) gs "
            "  GROUP BY a.cluster, gs.i), "
            "c1 AS (SELECT cluster, list(val ORDER BY pos) AS v FROM m1 "
            "  GROUP BY cluster), "
            "c1f AS (SELECT cluster, v FROM c1 UNION ALL "
            "  SELECT cluster, v FROM init "
            "  WHERE cluster NOT IN (SELECT cluster FROM c1)), "
            "a2 AS (SELECT e.vec_id, c.cluster, "
            "  row_number() OVER (PARTITION BY e.vec_id "
            "    ORDER BY list_distance(e.v, c.v), c.cluster) AS rn "
            "  FROM emb e CROSS JOIN c1f c) "
            "SELECT vec_id, CAST(cluster AS BIGINT) AS cluster "
            "FROM a2 WHERE rn = 1"
        ),
        "sample_stratified": (
            # the deterministic_sample hash as a per-group rank
            "SELECT doc_id, source FROM documents "
            "QUALIFY row_number() OVER (PARTITION BY source "
            "ORDER BY ((doc_id & 2147483647) * 2654435761) % 4294967296, "
            "doc_id) <= 20"
        ),
        "decontaminate": (
            # bench = the 5% hash sample (the deterministic_sample
            # predicate, 2^32 * 5 // 100 = 214748364); hits = distinct
            # 5-token-grams shared with the bench set, identical \S+
            # tokenization on both sides.
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
        ),
        # rows-only (non-SQL-expressible) queries intentionally omitted:
        # knn_ivf / knn_ivf_indexed (approximate by design)
        **_maybe_media_sql(),
    }
    # the *_big variants force the above-max_distinct data-plane paths
    # of the rank/threshold family; identical semantics, identical SQL
    out["rollup_pricing"] = (
        # integer cents keep every sum associative-exact; ROLLUP's
        # subtotal rows carry NULL rolled-up keys on both sides
        "SELECT l_returnflag, l_linestatus, "
        "CAST(count(*) AS BIGINT) AS n_rows, "
        "CAST(sum(CAST(floor(l_extendedprice * 100) AS BIGINT)) "
        "  AS BIGINT) AS sum_cents "
        "FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)"
    )
    out["lang_pctrank"] = (
        # both fractions are value-functions (ties share them): ONE
        # IEEE division of exact integers each, bit-identical doubles
        "SELECT doc_id, lang, n_chars, "
        "percent_rank() OVER w AS pct_rank, "
        "cume_dist() OVER w AS cume_dist "
        "FROM documents WINDOW w AS (PARTITION BY lang ORDER BY n_chars)"
    )
    out["lang_pctrank_big"] = out["lang_pctrank"]
    out["user_gapfill"] = (
        # dense hourly grid per user between first and last active
        # window; epoch_us // window matches the engine's ts cast
        "WITH w AS (SELECT user_id, "
        "    epoch_us(ts) // 3600000000 AS window_id FROM events), "
        "c AS (SELECT user_id, window_id, count(*) AS n "
        "  FROM w GROUP BY 1, 2), "
        "b AS (SELECT user_id, min(window_id) AS lo, "
        "    max(window_id) AS hi FROM c GROUP BY 1), "
        "g AS (SELECT user_id, unnest(generate_series(lo, hi)) "
        "    AS window_id FROM b) "
        "SELECT g.user_id, g.window_id, "
        "CAST(coalesce(c.n, 0) AS BIGINT) AS n_events "
        "FROM g LEFT JOIN c USING (user_id, window_id)"
    )
    out["latest_state"] = (
        # last-writer-wins: greatest (ts, event_id) per key; value
        # rides along unchanged so the float column is hash-exact
        "SELECT user_id, event_type, event_id, ts, value FROM events "
        "QUALIFY row_number() OVER (PARTITION BY user_id, event_type "
        "ORDER BY ts DESC, event_id DESC) = 1"
    )
    out["fuzzy_name_pairs"] = (
        # brute-force levenshtein oracle; the engine side generates
        # candidates by FastSS deletion signatures instead
        "SELECT a.c_custkey AS id_a, b.c_custkey AS id_b, "
        "CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS dist "
        "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
        "WHERE levenshtein(a.c_name, b.c_name) <= 1"
    )
    out["cooccur_top"] = (
        # binary collation on both sides: vocab-id order engine-side
        # IS lexicographic token order, so a.t < b.t pairs identically
        "WITH tk AS (SELECT doc_id, unnest(regexp_extract_all("
        "coalesce(text, ''), '\\S+')) AS t FROM documents), "
        "tok AS (SELECT DISTINCT doc_id, t FROM tk), "
        "df AS (SELECT t, count(*) AS df FROM tok GROUP BY t), "
        "vocab AS (SELECT t FROM df ORDER BY df DESC, t LIMIT 64), "
        "p AS (SELECT a.t AS ta, b.t AS tb, count(*) AS n "
        "FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND a.t < b.t "
        "WHERE a.t IN (SELECT t FROM vocab) "
        "AND b.t IN (SELECT t FROM vocab) GROUP BY 1, 2) "
        "SELECT ta AS token_a, tb AS token_b, CAST(n AS BIGINT) AS "
        "n_docs FROM p ORDER BY n_docs DESC, token_a, token_b LIMIT 50"
    )
    out["profile_orders"] = (
        "SELECT 'o_orderkey' AS col_name, CAST(count(*) AS BIGINT) AS n_rows, CAST(count(*) - count(o_orderkey) AS BIGINT) AS n_nulls, CAST(count(DISTINCT o_orderkey) AS BIGINT) AS n_distinct FROM orders UNION ALL SELECT 'o_custkey' AS col_name, CAST(count(*) AS BIGINT) AS n_rows, CAST(count(*) - count(o_custkey) AS BIGINT) AS n_nulls, CAST(count(DISTINCT o_custkey) AS BIGINT) AS n_distinct FROM orders UNION ALL SELECT 'o_orderstatus' AS col_name, CAST(count(*) AS BIGINT) AS n_rows, CAST(count(*) - count(o_orderstatus) AS BIGINT) AS n_nulls, CAST(count(DISTINCT o_orderstatus) AS BIGINT) AS n_distinct FROM orders UNION ALL SELECT 'o_totalprice' AS col_name, CAST(count(*) AS BIGINT) AS n_rows, CAST(count(*) - count(o_totalprice) AS BIGINT) AS n_nulls, CAST(count(DISTINCT o_totalprice) AS BIGINT) AS n_distinct FROM orders UNION ALL SELECT 'o_orderdate' AS col_name, CAST(count(*) AS BIGINT) AS n_rows, CAST(count(*) - count(o_orderdate) AS BIGINT) AS n_nulls, CAST(count(DISTINCT o_orderdate) AS BIGINT) AS n_distinct FROM orders UNION ALL SELECT 'o_orderpriority' AS col_name, CAST(count(*) AS BIGINT) AS n_rows, CAST(count(*) - count(o_orderpriority) AS BIGINT) AS n_nulls, CAST(count(DISTINCT o_orderpriority) AS BIGINT) AS n_distinct FROM orders"
    )
    out["regr_price_qty"] = (
        # moments are exact BIGINTs; slope/intercept mirror the
        # engine's IEEE expression tree literally (products AFTER
        # the double cast)
        "WITH m AS (SELECT l_returnflag, CAST(count(*) AS BIGINT) "
        "AS n_obs, "
        "CAST(sum(CAST(floor(l_quantity) AS BIGINT)) AS BIGINT) AS sx, "
        "CAST(sum(CAST(floor(l_extendedprice * 100) AS BIGINT)) "
        "AS BIGINT) AS sy, "
        "CAST(sum(CAST(floor(l_quantity) AS BIGINT) * "
        "CAST(floor(l_quantity) AS BIGINT)) AS BIGINT) AS sxx, "
        "CAST(sum(CAST(floor(l_quantity) AS BIGINT) * "
        "CAST(floor(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sxy "
        "FROM lineitem GROUP BY 1), "
        "m2 AS (SELECT *, (CAST(n_obs AS DOUBLE) * CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE)) / (CAST(n_obs AS DOUBLE) * CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) AS slope FROM m) "
        "SELECT l_returnflag, n_obs, sx, sy, sxx, sxy, slope, "
        "(CAST(sy AS DOUBLE) - slope * CAST(sx AS DOUBLE)) / "
        "CAST(n_obs AS DOUBLE) AS intercept FROM m2"
    )
    out["snapshot_diff_cust"] = (
        "WITH newsnap AS (SELECT c_custkey, CASE WHEN c_custkey % 7 "
        "= 0 THEN c_acctbal + 1.0 ELSE c_acctbal END AS c_acctbal, "
        "c_mktsegment FROM customer WHERE c_custkey >= 50 UNION ALL "
        "SELECT c_custkey + 1000000, c_acctbal, c_mktsegment FROM "
        "customer WHERE c_custkey < 25) "
        "SELECT coalesce(o.c_custkey, n.c_custkey) AS c_custkey, "
        "CASE WHEN n.c_custkey IS NULL THEN 'removed' "
        "WHEN o.c_custkey IS NULL THEN 'added' "
        "WHEN o.c_acctbal = n.c_acctbal AND o.c_mktsegment = "
        "n.c_mktsegment THEN 'same' ELSE 'changed' END AS status, "
        "o.c_acctbal AS c_acctbal_old, n.c_acctbal AS c_acctbal_new, "
        "o.c_mktsegment AS c_mktsegment_old, "
        "n.c_mktsegment AS c_mktsegment_new "
        "FROM customer o FULL OUTER JOIN newsnap n "
        "ON o.c_custkey = n.c_custkey"
    )
    out["throttled_events"] = (
        "SELECT event_id, user_id, event_type, ts FROM ("
        "SELECT event_id, user_id, event_type, ts, "
        "lag(epoch_us(ts)) OVER (PARTITION BY user_id, event_type "
        "ORDER BY ts, event_id) AS prev FROM events) "
        "WHERE prev IS NULL OR epoch_us(ts) - prev > 600000000"
    )
    out["weighted_sample"] = (
        # identical md5 + IEEE chain: 52-bit hex prefix -> exact
        # double in [0,1), one multiply, ties by id
        "SELECT doc_id, n_chars, "
        "(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 13))"
        "::BIGINT AS DOUBLE) / 4503599627370496.0) * "
        "(CAST(n_chars AS DOUBLE) + 1.0) AS score FROM documents "
        "ORDER BY score DESC, doc_id LIMIT 200"
    )
    out["cube_pricing"] = (
        "SELECT l_returnflag, l_linestatus, "
        "CAST(GROUPING(l_returnflag, l_linestatus) AS BIGINT) AS "
        "grouping_id, CAST(count(*) AS BIGINT) AS n_rows, "
        "CAST(sum(CAST(floor(l_extendedprice * 100) AS BIGINT)) AS "
        "BIGINT) AS sum_cents FROM lineitem "
        "GROUP BY CUBE(l_returnflag, l_linestatus)"
    )
    out["window_reach"] = (
        "SELECT epoch_us(ts) // 3600000000 AS window_id, "
        "CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct "
        "FROM events GROUP BY 1"
    )
    out["event_quantiles_cont"] = (
        "WITH v AS (SELECT event_type, CAST(floor(value * 100) AS BIGINT) AS c FROM events), r AS (SELECT event_type, c, row_number() OVER (PARTITION BY event_type ORDER BY c) AS rn, count(*) OVER (PARTITION BY event_type) AS n FROM v), p AS (SELECT event_type, max(n) AS n, max(CASE WHEN rn = CAST(floor(CAST(n - 1 AS DOUBLE) * 0.5) AS BIGINT) + 1 THEN c END) AS lo50, max(CASE WHEN rn = CAST(ceil(CAST(n - 1 AS DOUBLE) * 0.5) AS BIGINT) + 1 THEN c END) AS hi50, max(CASE WHEN rn = CAST(floor(CAST(n - 1 AS DOUBLE) * 0.9) AS BIGINT) + 1 THEN c END) AS lo90, max(CASE WHEN rn = CAST(ceil(CAST(n - 1 AS DOUBLE) * 0.9) AS BIGINT) + 1 THEN c END) AS hi90 FROM r GROUP BY event_type) SELECT event_type, CAST(lo50 AS DOUBLE) + (CAST(hi50 AS DOUBLE) - CAST(lo50 AS DOUBLE)) * (CAST(n - 1 AS DOUBLE) * 0.5 - floor(CAST(n - 1 AS DOUBLE) * 0.5)) AS p50_cents, CAST(lo90 AS DOUBLE) + (CAST(hi90 AS DOUBLE) - CAST(lo90 AS DOUBLE)) * (CAST(n - 1 AS DOUBLE) * 0.9 - floor(CAST(n - 1 AS DOUBLE) * 0.9)) AS p90_cents FROM p"
    )
    out["cohort_retention"] = (
        "WITH w AS (SELECT DISTINCT user_id, epoch_us(ts) // "
        "86400000000 AS win FROM events), "
        "c AS (SELECT user_id, min(win) AS cohort FROM w GROUP BY 1) "
        "SELECT c.cohort, w.win, CAST(count(*) AS BIGINT) AS n_users "
        "FROM w JOIN c USING (user_id) GROUP BY 1, 2"
    )
    out["knn_graph"] = (
        # quantized integer dots: exact in double at ANY summation
        # order, so list_dot_product mirrors the numpy matmul bitwise
        "WITH q AS (SELECT vec_id, list_transform(embedding, "
        "x -> floor(CAST(x AS DOUBLE) * 1000)) AS e FROM embeddings), "
        "p AS (SELECT a.vec_id AS vec_id, b.vec_id AS neighbor_id, "
        "list_dot_product(a.e, b.e) AS dot, row_number() OVER "
        "(PARTITION BY a.vec_id ORDER BY list_dot_product(a.e, b.e) "
        "DESC, b.vec_id) AS rn FROM q a JOIN q b ON "
        "a.vec_id <> b.vec_id) "
        "SELECT vec_id, neighbor_id, dot FROM p WHERE rn <= 5"
    )
    out["merge_customers"] = (
        # the merge result IS snapshot_diff's simulated next snapshot
        "SELECT c_custkey, CASE WHEN c_custkey % 7 = 0 THEN "
        "c_acctbal + 1.0 ELSE c_acctbal END AS c_acctbal, "
        "c_mktsegment FROM customer WHERE c_custkey >= 50 "
        "UNION ALL SELECT c_custkey + 1000000, c_acctbal, "
        "c_mktsegment FROM customer WHERE c_custkey < 25"
    )
    out["bool_search"] = (
        "WITH tok AS (SELECT doc_id, unnest(regexp_extract_all("
        "coalesce(text, ''), '\\S+')) AS t FROM documents) "
        "SELECT doc_id FROM documents WHERE "
        "doc_id IN (SELECT doc_id FROM tok WHERE t = 'batch') AND "
        "doc_id IN (SELECT doc_id FROM tok WHERE t = 'scan') AND "
        "doc_id IN (SELECT doc_id FROM tok WHERE t = 'spark')"
    )
    out["class_centroids"] = (
        # zipped unnests; quantized sums are exact BIGINTs, the mean
        # is the same single IEEE division both sides
        "WITH q AS (SELECT label, list_transform(embedding, "
        "x -> CAST(floor(CAST(x AS DOUBLE) * 1000) AS BIGINT)) AS e "
        "FROM embeddings), "
        "u AS (SELECT label, unnest(e) AS v, "
        "unnest(generate_series(1, len(e))) AS dim FROM q) "
        "SELECT CAST(label AS BIGINT) AS label, dim, "
        "CAST(count(*) AS BIGINT) AS n_obs, "
        "CAST(sum(v) AS BIGINT) AS sum_q, "
        "CAST(sum(v) AS DOUBLE) / CAST(count(*) AS DOUBLE) AS mean_q "
        "FROM u GROUP BY 1, 2"
    )
    out["top_paths"] = (
        "WITH s AS (SELECT user_id, event_type, ts, event_id, CASE WHEN lag(epoch_us(ts)) OVER w IS NULL OR epoch_us(ts) - lag(epoch_us(ts)) OVER w > 1800000000 THEN 1 ELSE 0 END AS newsess FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)), s2 AS (SELECT *, SUM(newsess) OVER (PARTITION BY user_id ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) AS sid FROM s), p AS (SELECT user_id, sid, string_agg(event_type, '>' ORDER BY ts, event_id) AS path FROM s2 GROUP BY 1, 2) SELECT path, CAST(count(*) AS BIGINT) AS n_sessions FROM p GROUP BY 1 ORDER BY n_sessions DESC, path LIMIT 25"
    )
    out["salted_join"] = (
        "SELECT l.l_orderkey, l.l_linenumber, o.o_orderpriority "
        "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey"
    )
    out["unigram_lm"] = (
        # per-token log-prob quantized to integer micro-nats; ln is
        # libm on both sides (math.log engine-side), floor of the
        # identical expression tree, so sums are exact int64 and the
        # avg is the same single IEEE division
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
    )
    out["vocab_oov"] = (
        "WITH toks AS (SELECT doc_id, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok "
        "FROM documents), "
        "cnt AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok), "
        "vocab AS (SELECT tok FROM cnt QUALIFY "
        "row_number() OVER (ORDER BY c DESC, tok) <= 1000) "
        "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens, "
        "CAST(count(*) FILTER (WHERE tok NOT IN "
        "(SELECT tok FROM vocab)) AS BIGINT) AS n_oov, "
        "CAST(count(*) FILTER (WHERE tok NOT IN "
        "(SELECT tok FROM vocab)) AS DOUBLE) / "
        "CAST(count(*) AS DOUBLE) AS oov_rate "
        "FROM toks GROUP BY doc_id"
    )
    out["pagerank_parts"] = (
        # integer-quantized PageRank, 3 damped iterations unrolled;
        # every division is a floor over non-negative int64 on both
        # sides, so ranks are bit-identical on any partitioning
        "WITH pairs AS (SELECT DISTINCT l_suppkey AS s, l_partkey AS p "
        "FROM lineitem), "
        "edges AS (SELECT s AS src, p + 1000000000 AS dst FROM pairs "
        "UNION ALL SELECT p + 1000000000 AS src, s AS dst FROM pairs), "
        "deg AS (SELECT src, CAST(count(*) AS BIGINT) AS d FROM edges "
        "GROUP BY src), "
        "n AS (SELECT CAST(count(*) AS BIGINT) AS nn FROM deg), "
        "r0 AS (SELECT src AS node, 1000000000000 // nn AS r "
        "FROM deg CROSS JOIN n), "
        "s1 AS (SELECT e.dst AS node, CAST(sum(r.r // g.d) AS BIGINT) "
        "AS s FROM edges e JOIN r0 r ON e.src = r.node "
        "JOIN deg g ON e.src = g.src GROUP BY e.dst), "
        "r1 AS (SELECT node, (15 * 1000000000000) // (100 * nn) + "
        "(85 * s) // 100 AS r FROM s1 CROSS JOIN n), "
        "s2 AS (SELECT e.dst AS node, CAST(sum(r.r // g.d) AS BIGINT) "
        "AS s FROM edges e JOIN r1 r ON e.src = r.node "
        "JOIN deg g ON e.src = g.src GROUP BY e.dst), "
        "r2 AS (SELECT node, (15 * 1000000000000) // (100 * nn) + "
        "(85 * s) // 100 AS r FROM s2 CROSS JOIN n), "
        "s3 AS (SELECT e.dst AS node, CAST(sum(r.r // g.d) AS BIGINT) "
        "AS s FROM edges e JOIN r2 r ON e.src = r.node "
        "JOIN deg g ON e.src = g.src GROUP BY e.dst), "
        "r3 AS (SELECT node, (15 * 1000000000000) // (100 * nn) + "
        "(85 * s) // 100 AS r FROM s3 CROSS JOIN n) "
        "SELECT node, CAST(r AS BIGINT) AS rank_q FROM r3"
    )
    out["dedup_priority"] = (
        "SELECT * FROM documents QUALIFY row_number() OVER "
        "(PARTITION BY text ORDER BY CASE source "
        "WHEN 'src3' THEN 0 WHEN 'src1' THEN 1 WHEN 'src0' THEN 2 "
        "ELSE 3 END, doc_id) = 1"
    )
    out["bigram_lm"] = (
        # zipped unnests build aligned (w1, w2) pairs; c1 is the sum
        # of its bigram counts so conditionals normalize exactly; the
        # quantized lp is the same floor/ln expression tree as the
        # engine's (libm ln both sides)
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
    )
    out["twap"] = (
        # integer cents x ms interval weights under (ts, id) order;
        # the last event of a user contributes nothing; one IEEE
        # division, null when the span is all zero-length
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
    )
    out["token_entropy"] = (
        # per token type: c * floor((ln(n) - ln(c)) * scale); ln is
        # libm on both sides, so entropy_q sums are exact int64 and
        # avg_entropy is the same single IEEE division
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
    )
    out["domain_kl"] = (
        # same floor/ln micro-nat tree as the engine, left-to-right
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
    )
    out["pmi_topk"] = (
        # PMI with p2 from the bigram stream and p1 from the token
        # stream; identical floor/ln micro-nat tree, exact top-k cut
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
        "JOIN c1 b ON c2.w2 = b.tok WHERE c2.c >= 5) "
        "SELECT w1, w2, c2, pmi_q FROM p QUALIFY "
        "row_number() OVER (ORDER BY pmi_q DESC, w1, w2) <= 25 "
        "ORDER BY pmi_q DESC, w1, w2"
    )
    out["split_assign_docs"] = (
        # same md5 52-bit-prefix -> exact-double chain as
        # weighted_sample; the cut literals parse to the same IEEE
        # doubles on both sides
        "SELECT doc_id, CAST(('0x' || substr(md5(CAST(doc_id AS "
        "VARCHAR)), 1, 13))::BIGINT AS DOUBLE) / 4503599627370496.0 "
        "AS u, "
        "CASE WHEN ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, "
        "13))::BIGINT / 4503599627370496.0 < 0.9 THEN 'train' "
        "WHEN ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, "
        "13))::BIGINT / 4503599627370496.0 < 0.95 THEN 'val' "
        "ELSE 'test' END AS split FROM documents"
    )
    out["vocab_overlap"] = (
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
    )
    out["user_entropy"] = (
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
    )
    from console_log_parser_ray.stages.search import bm25_oracle_sql

    out["hybrid_rrf"] = (
        # both legs' orderings are the ones their standalone oracles
        # pin; the fused score is two IEEE divisions + one addition
        "WITH bm AS (SELECT doc_id, score FROM ("
        + bm25_oracle_sql(_BM25_TERMS)
        + ")), "
        "br AS (SELECT doc_id, CAST(row_number() OVER "
        "(ORDER BY score DESC, doc_id) AS BIGINT) AS ra FROM bm "
        "QUALIFY ra <= 100), "
        "kr AS (SELECT e.vec_id AS doc_id, CAST(row_number() OVER "
        "(ORDER BY list_cosine_similarity((SELECT embedding FROM "
        "embeddings WHERE vec_id = 0), e.embedding) DESC, e.vec_id) "
        "AS BIGINT) AS rb FROM embeddings e QUALIFY rb <= 100), "
        "u AS (SELECT COALESCE(br.doc_id, kr.doc_id) AS doc_id, "
        "br.ra, kr.rb FROM br FULL OUTER JOIN kr "
        "ON br.doc_id = kr.doc_id) "
        "SELECT doc_id, ra AS rank_bm25, rb AS rank_knn, "
        "COALESCE(1.0 / (60 + ra), 0.0) + "
        "COALESCE(1.0 / (60 + rb), 0.0) AS rrf "
        "FROM u QUALIFY row_number() OVER (ORDER BY rrf DESC, doc_id) "
        "<= 20"
    )
    out["kmv_users"] = (
        # bottom-k sketch: k smallest 60-bit md5-prefix hashes of the
        # distinct user ids + the running KMV estimate, every cell an
        # exact integer on both sides ((j-1) << 60 floor-divided by
        # the j-th hash; HUGEINT for the shifted numerator)
        "WITH h AS (SELECT DISTINCT ('0x' || "
        "substr(md5(CAST(user_id AS VARCHAR)), 1, 15))::BIGINT AS h "
        "FROM events WHERE user_id IS NOT NULL), "
        "r AS (SELECT h, CAST(row_number() OVER (ORDER BY h) "
        "AS BIGINT) AS rank FROM h ORDER BY h LIMIT 256) "
        "SELECT rank, h, CAST((CAST(rank - 1 AS HUGEINT) * "
        "CAST(1152921504606846976 AS HUGEINT)) // CAST(h AS HUGEINT) "
        "AS BIGINT) AS est FROM r ORDER BY rank"
    )
    out["scd2_state"] = (
        # SCD2: interval open at the key's next change, null for the
        # latest row of each (user, event_type) key
        "SELECT user_id, event_type, event_id, ts AS valid_from, "
        "lead(ts) OVER (PARTITION BY user_id, event_type "
        "ORDER BY ts, event_id) AS valid_to FROM events"
    )
    out["skyline_orders"] = (
        # 2-D skyline (maximize price, minimize date): on distinct
        # points sorted price-desc, a point is on the frontier iff it
        # is the min-date row of its price AND its date is strictly
        # below every higher-price point's running minimum; ties on
        # both dimensions all survive via the final equality join
        "WITH pts AS (SELECT DISTINCT o_totalprice AS x, "
        "o_orderdate AS y FROM orders), "
        "fx AS (SELECT x, min(y) AS y FROM pts GROUP BY x), "
        "r AS (SELECT x, y, min(y) OVER (ORDER BY x DESC "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prev "
        "FROM fx), "
        "sky AS (SELECT x, y FROM r WHERE prev IS NULL OR y < prev) "
        "SELECT o.o_orderkey, o.o_totalprice, o.o_orderdate "
        "FROM orders o JOIN sky s "
        "ON o.o_totalprice = s.x AND o.o_orderdate = s.y"
    )
    out["user_streaks"] = (
        # gaps-and-islands: day - row_number() is constant within a
        # maximal consecutive-day run
        "WITH d AS (SELECT DISTINCT user_id, "
        "epoch_us(ts) // 86400000000 AS day FROM events), "
        "i AS (SELECT user_id, day, day - row_number() OVER "
        "(PARTITION BY user_id ORDER BY day) AS island FROM d), "
        "s AS (SELECT user_id, island, CAST(count(*) AS BIGINT) AS "
        "len FROM i GROUP BY 1, 2) "
        "SELECT user_id, CAST(sum(len) AS BIGINT) AS n_active_days, "
        "CAST(count(*) AS BIGINT) AS n_streaks, "
        "CAST(max(len) AS BIGINT) AS longest_streak "
        "FROM s GROUP BY user_id"
    )
    _cm_cols = [
        ("l_quantity", "1"),
        ("l_extendedprice", "1"),
        ("l_discount", "100"),
        ("l_tax", "100"),
    ]
    _cm_q = ", ".join(
        f"CAST(floor({c} * {s}) AS BIGINT) AS v{i}"
        for i, (c, s) in enumerate(_cm_cols)
    )
    _cm_sums = ["CAST(count(*) AS BIGINT) AS n"]
    for i in range(4):
        _cm_sums.append(f"sum(v{i}) AS s{i}")
        for j in range(i, 4):
            _cm_sums.append(f"sum(v{i} * v{j}) AS ss{i}_{j}")
    _cm_rows = []
    for i in range(4):
        for j in range(i + 1, 4):
            _cm_rows.append(
                f"SELECT '{_cm_cols[i][0]}' AS col_x, "
                f"'{_cm_cols[j][0]}' AS col_y, n, "
                f"(CAST(n AS DOUBLE) * CAST(ss{i}_{j} AS DOUBLE) - "
                f"CAST(s{i} AS DOUBLE) * CAST(s{j} AS DOUBLE)) / "
                f"(sqrt(CAST(n AS DOUBLE) * CAST(ss{i}_{i} AS DOUBLE)"
                f" - CAST(s{i} AS DOUBLE) * CAST(s{i} AS DOUBLE)) * "
                f"sqrt(CAST(n AS DOUBLE) * CAST(ss{j}_{j} AS DOUBLE)"
                f" - CAST(s{j} AS DOUBLE) * CAST(s{j} AS DOUBLE))) "
                f"AS corr FROM m"
            )
    out["corr_matrix"] = (
        # exact fixed-point moments (BIGINT products summed into
        # DuckDB's HUGEINT accumulator = the engine's Python-int
        # fold), then the identical IEEE expression tree
        f"WITH q AS (SELECT {_cm_q} FROM lineitem), "
        f"m AS (SELECT {', '.join(_cm_sums)} FROM q) "
        + " UNION ALL ".join(_cm_rows)
    )
    out["nearest_click"] = (
        # nearest neighbor in time, either direction; deterministic
        # (gap, candidate ts, candidate id) tie rule
        "WITH a AS (SELECT event_id, user_id, ts FROM events "
        "WHERE event_type = 'purchase'), "
        "c AS (SELECT event_id, user_id, ts FROM events "
        "WHERE event_type = 'click'), "
        "j AS (SELECT a.event_id AS anchor_id, a.user_id, "
        "a.ts AS anchor_ts, c.event_id AS near_id, c.ts AS near_ts, "
        "CAST(abs(epoch_us(a.ts) - epoch_us(c.ts)) AS BIGINT) AS "
        "gap_us, row_number() OVER (PARTITION BY a.event_id "
        "ORDER BY abs(epoch_us(a.ts) - epoch_us(c.ts)), c.ts, "
        "c.event_id) AS rn FROM a JOIN c USING (user_id)) "
        "SELECT anchor_id, user_id, anchor_ts, near_id, near_ts, "
        "gap_us FROM j WHERE rn = 1"
    )
    out["lang_source_mi"] = (
        # PMI in integer micro-nats, identical floor/ln tree
        "WITH c AS (SELECT lang, source, CAST(count(*) AS BIGINT) "
        "AS c_xy FROM documents GROUP BY 1, 2), "
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
    )
    out["setsim_pairs"] = (
        # exact all-pairs ground truth over the same planted corpus as
        # dedup_minhash: 3-token shingle sets (whole-doc join for
        # docs under 3 tokens), Jaccard >= 0.85 with exact
        # intersection / union sizes
        "WITH raw AS (SELECT doc_id, "
        "regexp_extract_all(text, '\\S+') AS toks FROM documents), "
        "pert AS (SELECT doc_id + 1000000 AS doc_id, "
        "CASE WHEN len(toks) >= 60 THEN list_concat("
        "toks[1:len(toks)//2], toks[len(toks)//2+2:]) "
        "ELSE toks END AS toks FROM raw), "
        "base AS (SELECT * FROM raw UNION ALL SELECT * FROM pert), "
        "idx AS (SELECT doc_id, toks, unnest(generate_series(1, "
        "greatest(len(toks) - 2, 0))) AS i FROM base), "
        "win AS (SELECT doc_id, toks[i] || ' ' || toks[i+1] || ' ' "
        "|| toks[i+2] AS shingle FROM idx), "
        "short AS (SELECT doc_id, array_to_string(toks, ' ') AS "
        "shingle FROM base WHERE len(toks) > 0 AND len(toks) < 3), "
        "d AS (SELECT DISTINCT doc_id, shingle FROM "
        "(SELECT * FROM win UNION ALL SELECT * FROM short)), "
        "sz AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n FROM d "
        "GROUP BY 1), "
        "i2 AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
        "CAST(count(*) AS BIGINT) AS n_inter FROM d a JOIN d b "
        "USING (shingle) WHERE a.doc_id < b.doc_id GROUP BY 1, 2) "
        "SELECT doc_a, doc_b, n_inter, "
        "sa.n + sb.n - n_inter AS n_union, "
        "CAST(n_inter AS DOUBLE) / "
        "CAST(sa.n + sb.n - n_inter AS DOUBLE) AS jaccard "
        "FROM i2 JOIN sz sa ON doc_a = sa.doc_id "
        "JOIN sz sb ON doc_b = sb.doc_id "
        "WHERE CAST(n_inter AS DOUBLE) / "
        "CAST(sa.n + sb.n - n_inter AS DOUBLE) >= 0.85"
    )
    out["user_time_rolling"] = (
        # event-time RANGE frame over integer cents; peers (equal ts)
        # share the frame on both sides, exactly the searchsorted
        # semantics engine-side
        "SELECT event_id, user_id, ts, "
        "CAST(sum(CAST(floor(value * 100) AS BIGINT)) OVER "
        "(PARTITION BY user_id ORDER BY ts RANGE BETWEEN "
        "INTERVAL 1 HOUR PRECEDING AND CURRENT ROW) AS BIGINT) "
        "AS win_cents FROM events"
    )
    out["outer_join_users"] = (
        # FULL JOIN with the key coalesced into one column, matching
        # Acero's coalesce_keys output
        "SELECT e.event_id, coalesce(e.user_id, c.c_custkey) AS "
        "user_id, e.event_type, c.c_mktsegment FROM events e "
        "FULL OUTER JOIN (SELECT c_custkey, c_mktsegment FROM customer "
        "WHERE c_custkey >= 100) c ON e.user_id = c.c_custkey"
    )
    out["doc_rank_big"] = out["doc_rank"]
    out["lang_rank_big"] = out["lang_rank"]
    out["top_decile_big"] = out["top_decile_docs"]
    out["mad_outliers_big"] = out["mad_outliers"]
    out["chisq_click_weekend"] = (
        # 2x2 chi-square / Yates / phi / odds ratio from four exact
        # cell counts; weekday by pure epoch integer arithmetic
        "WITH c AS (SELECT (event_type = 'click') AS a, "
        "(((epoch_us(ts) // 86400000000) + 4) % 7) IN (0, 6) AS b "
        "FROM events WHERE event_type IN ('click', 'view') "
        "AND ts IS NOT NULL), "
        "f AS (SELECT CAST(count(*) FILTER (WHERE a AND b) AS BIGINT) "
        "AS n11, CAST(count(*) FILTER (WHERE a AND NOT b) AS BIGINT) "
        "AS n10, CAST(count(*) FILTER (WHERE NOT a AND b) AS BIGINT) "
        "AS n01, CAST(count(*) FILTER (WHERE NOT a AND NOT b) "
        "AS BIGINT) AS n00 FROM c), "
        "g AS (SELECT n11, n10, n01, n00, "
        "n11 + n10 + n01 + n00 AS n, n11 + n10 AS r1, "
        "n01 + n00 AS r0, n11 + n01 AS c1, n10 + n00 AS c0, "
        "CAST(n11 AS HUGEINT) * n00 - CAST(n10 AS HUGEINT) * n01 "
        "AS d FROM f), "
        "h AS (SELECT *, CAST(r1 AS HUGEINT) * r0 * c1 * c0 AS den "
        "FROM g) "
        "SELECT n11, n10, n01, n00, "
        "CASE WHEN den > 0 THEN CAST(CAST(n AS HUGEINT) * d * d "
        "AS DOUBLE) / CAST(den AS DOUBLE) END AS chi2, "
        "CASE WHEN den > 0 THEN (CASE WHEN 2 * abs(d) - n > 0 THEN "
        "CAST(CAST(n AS HUGEINT) * (2 * abs(d) - n) * "
        "(2 * abs(d) - n) AS DOUBLE) / CAST(4 * den AS DOUBLE) "
        "ELSE 0.0 END) END AS chi2_yates, "
        "CASE WHEN den > 0 THEN CAST(d AS DOUBLE) / "
        "sqrt(CAST(CAST(r1 AS HUGEINT) * r0 AS DOUBLE) * "
        "CAST(CAST(c1 AS HUGEINT) * c0 AS DOUBLE)) END AS phi, "
        "CASE WHEN CAST(n10 AS HUGEINT) * n01 > 0 THEN "
        "CAST(CAST(n11 AS HUGEINT) * n00 AS DOUBLE) / "
        "CAST(CAST(n10 AS HUGEINT) * n01 AS DOUBLE) END "
        "AS odds_ratio FROM h"
    )
    out["spearman_qty_price"] = (
        # tie-aware Spearman via doubled average ranks; every moment
        # is an exact HUGEINT, one float finish
        "WITH c AS (SELECT CAST(l_quantity AS BIGINT) AS x, "
        "CAST(floor(l_extendedprice * 100) AS BIGINT) AS y "
        "FROM lineitem WHERE l_quantity IS NOT NULL "
        "AND l_extendedprice IS NOT NULL), "
        "h AS (SELECT x, y, CAST(count(*) AS BIGINT) AS n "
        "FROM c GROUP BY 1, 2), "
        "mx AS (SELECT x, CAST(sum(n) AS BIGINT) AS nx FROM h "
        "GROUP BY 1), "
        "rx AS (SELECT x, nx, CAST(2 * coalesce(sum(nx) OVER ("
        "ORDER BY x ROWS BETWEEN UNBOUNDED PRECEDING AND 1 "
        "PRECEDING), 0) + nx + 1 AS BIGINT) AS r FROM mx), "
        "my AS (SELECT y, CAST(sum(n) AS BIGINT) AS ny FROM h "
        "GROUP BY 1), "
        "ry AS (SELECT y, ny, CAST(2 * coalesce(sum(ny) OVER ("
        "ORDER BY y ROWS BETWEEN UNBOUNDED PRECEDING AND 1 "
        "PRECEDING), 0) + ny + 1 AS BIGINT) AS r FROM my), "
        "s AS (SELECT CAST(sum(n) AS HUGEINT) AS nn FROM h), "
        "sx AS (SELECT sum(CAST(nx AS HUGEINT) * r) AS v1, "
        "sum(CAST(nx AS HUGEINT) * r * r) AS v2, "
        "CAST(count(*) AS BIGINT) AS nd FROM rx), "
        "sy AS (SELECT sum(CAST(ny AS HUGEINT) * r) AS v1, "
        "sum(CAST(ny AS HUGEINT) * r * r) AS v2, "
        "CAST(count(*) AS BIGINT) AS nd FROM ry), "
        "sxy AS (SELECT sum(CAST(h.n AS HUGEINT) * rx.r * ry.r) "
        "AS v FROM h JOIN rx USING (x) JOIN ry USING (y)) "
        "SELECT CAST(s.nn AS BIGINT) AS n, sx.nd AS nd_x, "
        "sy.nd AS nd_y, "
        "CASE WHEN s.nn * sx.v2 - sx.v1 * sx.v1 > 0 "
        "AND s.nn * sy.v2 - sy.v1 * sy.v1 > 0 THEN "
        "CAST(s.nn * sxy.v - sx.v1 * sy.v1 AS DOUBLE) / "
        "sqrt(CAST(s.nn * sx.v2 - sx.v1 * sx.v1 AS DOUBLE) * "
        "CAST(s.nn * sy.v2 - sy.v1 * sy.v1 AS DOUBLE)) END AS rho "
        "FROM s, sx, sy, sxy"
    )
    out["kendall_qty_disc"] = (
        # tau-b from the contingency cells: pairwise cell join for
        # concordant/discordant HUGEINT pair counts, margin tie
        # corrections, one float finish
        "WITH src AS (SELECT CAST(l_quantity AS BIGINT) AS x, "
        "CAST(floor(l_discount * 1000) AS BIGINT) AS y FROM lineitem "
        "WHERE l_quantity IS NOT NULL AND l_discount IS NOT NULL), "
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
    )
    out["cramers_action_dow"] = (
        # observed-cell chi-square terms plus the absent cells' mass
        # (n*n - sum ra*cb)/n, each quantized to integer micro-units
        # (identical expression tree), order-free sum, single-float V
        "WITH src AS (SELECT coalesce(event_type, '') AS a, "
        "(((epoch_us(ts) // 86400000000) + 4) % 7) AS b FROM events "
        "WHERE ts IS NOT NULL), "
        "c AS (SELECT a, b, CAST(count(*) AS BIGINT) AS o FROM src "
        "GROUP BY 1, 2), "
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
    )
    out["theil_u_priority_dow"] = (
        # integer micro-nat entropies (ln == math.log), exact HUGEINT
        # numerator folds, one float division
        "WITH src AS (SELECT coalesce(o_orderpriority, '') AS a, "
        "(((epoch_us(o_orderdate) // 86400000000) + 4) % 7) AS b "
        "FROM orders WHERE o_orderdate IS NOT NULL), "
        "c AS (SELECT a, b, CAST(count(*) AS BIGINT) AS o FROM src "
        "GROUP BY 1, 2), "
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
    )
    out["ewma_daily_sales"] = (
        # the same sequential recursion as the engine, stated as a
        # recursive CTE over the exact-cents daily series
        "WITH RECURSIVE d AS (SELECT epoch_us(o_orderdate) // "
        "86400000000 AS bucket, CAST(sum(CAST(floor(o_totalprice * "
        "100) AS BIGINT)) AS BIGINT) AS x FROM orders WHERE "
        "o_orderdate IS NOT NULL AND o_totalprice IS NOT NULL "
        "GROUP BY 1), "
        "o AS (SELECT bucket, x, row_number() OVER (ORDER BY bucket) "
        "AS rn FROM d), "
        "r AS (SELECT rn, bucket, x, CAST(x AS DOUBLE) AS ewma "
        "FROM o WHERE rn = 1 "
        "UNION ALL SELECT o.rn, o.bucket, o.x, "
        "0.25 * CAST(o.x AS DOUBLE) + 0.75 * r.ewma "
        "FROM o JOIN r ON o.rn = r.rn + 1) "
        "SELECT CAST(bucket AS BIGINT) AS bucket, x, ewma FROM r"
    )
    out["holt_weekly_sales"] = (
        # two-accumulator Holt recursion as a recursive CTE; anchor
        # trend = x2 - x1, fitted/resid NULL on the anchor
        "WITH RECURSIVE d AS (SELECT epoch_us(o_orderdate) // "
        "604800000000 AS bucket, CAST(sum(CAST(floor(o_totalprice * "
        "100) AS BIGINT)) AS BIGINT) AS x FROM orders WHERE "
        "o_orderdate IS NOT NULL AND o_totalprice IS NOT NULL "
        "GROUP BY 1), "
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
    )
    out["cmd_retry_rate"] = (
        # adjacent-equality LAG over command turns per conversation
        "WITH c AS (SELECT conv_id, turn_idx, expected_command AS "
        f"cmd FROM read_parquet('{_SF001_GLOB}') WHERE "
        "expected_command IS NOT NULL AND expected_command <> ''), "
        "w AS (SELECT conv_id, cmd, lag(cmd) OVER (PARTITION BY "
        "conv_id ORDER BY turn_idx) AS prev FROM c) "
        "SELECT conv_id, CAST(count(*) AS BIGINT) AS n_cmds, "
        "CAST(count(*) FILTER (WHERE cmd = prev) AS BIGINT) AS "
        "n_retries FROM w GROUP BY 1"
    )
    _terms_in = ", ".join(f"'{t}'" for t in _BM25_TERMS)
    out["prf_expansion"] = (
        # the generated BM25 mirror feeds the top-R cut; expansion
        # vocabulary counted exactly with query terms excluded
        "WITH bm AS ("
        + bm25_oracle_sql(_BM25_TERMS)
        + "), top AS (SELECT doc_id FROM bm ORDER BY score DESC, "
        "doc_id LIMIT 10), "
        "toks AS (SELECT d.doc_id, unnest(regexp_extract_all("
        "coalesce(d.text, ''), '\\S+')) AS tok FROM documents d "
        "JOIN top USING (doc_id)), "
        "c AS (SELECT tok AS term, CAST(count(*) AS BIGINT) AS "
        "n_occ, CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs "
        f"FROM toks WHERE tok NOT IN ({_terms_in}) GROUP BY 1) "
        "SELECT term, n_occ, n_docs FROM c "
        "ORDER BY n_occ DESC, term LIMIT 10"
    )
    out["best_snippet"] = (
        # per-top-doc windowed hit counts via positional unnest;
        # earliest-start tie rule
        "WITH bm AS ("
        + bm25_oracle_sql(_BM25_TERMS)
        + "), top AS (SELECT doc_id FROM bm ORDER BY score DESC, "
        "doc_id LIMIT 3), "
        "l AS (SELECT d.doc_id, regexp_extract_all(coalesce(d.text, "
        "''), '\\S+') AS toks FROM documents d JOIN top USING "
        "(doc_id)), "
        "nt AS (SELECT doc_id, CAST(len(toks) AS BIGINT) AS n "
        "FROM l WHERE len(toks) > 0), "
        "pos AS (SELECT doc_id, generate_subscripts(toks, 1) AS i, "
        "unnest(toks) AS tok FROM l), "
        f"hits AS (SELECT doc_id, i FROM pos WHERE tok IN "
        f"({_terms_in})), "
        "starts AS (SELECT doc_id, unnest(range(1, "
        "greatest(n - 10 + 1, 1) + 1)) AS s FROM nt), "
        "wc AS (SELECT st.doc_id, st.s, CAST(count(h.i) AS BIGINT) "
        "AS nh FROM starts st LEFT JOIN hits h ON h.doc_id = "
        "st.doc_id AND h.i >= st.s AND h.i < st.s + 10 "
        "GROUP BY 1, 2) "
        "SELECT doc_id, CAST(s - 1 AS BIGINT) AS start_tok, "
        "nh AS n_hits FROM wc QUALIFY row_number() OVER (PARTITION "
        "BY doc_id ORDER BY nh DESC, s) = 1"
    )
    out["langid_kappa"] = (
        # chance-corrected agreement from exact confusion counts
        "WITH pred AS (" + _lang_pred_sql() + "), "
        "c AS (SELECT d.lang, p.lang_pred, CAST(count(*) AS BIGINT) "
        "AS n FROM pred p JOIN documents d USING (doc_id) "
        "GROUP BY 1, 2), "
        "t AS (SELECT CAST(sum(n) AS HUGEINT) AS nn FROM c), "
        "ag AS (SELECT CAST(coalesce(sum(n) FILTER (WHERE lang = "
        "lang_pred), 0) AS HUGEINT) AS po FROM c), "
        "r AS (SELECT lang AS k, CAST(sum(n) AS HUGEINT) AS rc "
        "FROM c GROUP BY 1), "
        "cl AS (SELECT lang_pred AS k, CAST(sum(n) AS HUGEINT) AS "
        "cc FROM c GROUP BY 1), "
        "pe AS (SELECT CAST(coalesce(sum(r.rc * cl.cc), 0) AS "
        "HUGEINT) AS pen FROM r JOIN cl USING (k)) "
        "SELECT CAST(t.nn AS BIGINT) AS n, CAST(ag.po AS BIGINT) AS "
        "agree, CAST(pe.pen AS DOUBLE) AS pe_num, "
        "CASE WHEN t.nn * t.nn - pe.pen <> 0 THEN "
        "CAST(ag.po * t.nn - pe.pen AS DOUBLE) / "
        "CAST(t.nn * t.nn - pe.pen AS DOUBLE) END AS kappa "
        "FROM t, ag, pe"
    )
    out["langid_prf"] = (
        # per-class precision / recall / F1 from the same counts
        "WITH pred AS (" + _lang_pred_sql() + "), "
        "c AS (SELECT d.lang, p.lang_pred, CAST(count(*) AS BIGINT) "
        "AS n FROM pred p JOIN documents d USING (doc_id) "
        "GROUP BY 1, 2), "
        "langs AS (SELECT lang AS lg FROM c UNION SELECT lang_pred "
        "FROM c), "
        "m AS (SELECT langs.lg AS lang, "
        "CAST(coalesce((SELECT sum(n) FROM c WHERE c.lang = "
        "langs.lg AND c.lang_pred = langs.lg), 0) AS BIGINT) AS tp, "
        "CAST(coalesce((SELECT sum(n) FROM c WHERE c.lang = "
        "langs.lg), 0) AS BIGINT) AS n_true, "
        "CAST(coalesce((SELECT sum(n) FROM c WHERE c.lang_pred = "
        "langs.lg), 0) AS BIGINT) AS n_pred FROM langs) "
        "SELECT lang, tp, n_true, n_pred, "
        "CASE WHEN n_pred > 0 THEN CAST(tp AS DOUBLE) / "
        "CAST(n_pred AS DOUBLE) END AS precision, "
        "CASE WHEN n_true > 0 THEN CAST(tp AS DOUBLE) / "
        "CAST(n_true AS DOUBLE) END AS recall, "
        "CASE WHEN n_pred > 0 AND n_true > 0 AND "
        "CAST(tp AS DOUBLE) / CAST(n_pred AS DOUBLE) + "
        "CAST(tp AS DOUBLE) / CAST(n_true AS DOUBLE) > 0.0 THEN "
        "2.0 * (CAST(tp AS DOUBLE) / CAST(n_pred AS DOUBLE)) * "
        "(CAST(tp AS DOUBLE) / CAST(n_true AS DOUBLE)) / "
        "(CAST(tp AS DOUBLE) / CAST(n_pred AS DOUBLE) + "
        "CAST(tp AS DOUBLE) / CAST(n_true AS DOUBLE)) END AS f1 "
        "FROM m"
    )
    out["vocab_coverage"] = (
        # global token counts, (count DESC, token) order, cumulative
        # coverage at each cut
        "WITH toks AS (SELECT unnest(regexp_extract_all("
        "coalesce(text, ''), '\\S+')) AS tok FROM documents), "
        "c AS (SELECT tok, CAST(count(*) AS BIGINT) AS n FROM toks "
        "GROUP BY 1), "
        "t AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM c), "
        "r AS (SELECT n, CAST(row_number() OVER (ORDER BY n DESC, "
        "tok) AS BIGINT) AS rnk, sum(n) OVER (ORDER BY n DESC, tok "
        "ROWS UNBOUNDED PRECEDING) AS cum FROM c), "
        "cuts AS (SELECT unnest([100, 1000, 10000]) AS k), "
        "m AS (SELECT cuts.k, max(r.rnk) AS used, "
        "CAST(max(r.cum) AS BIGINT) AS covered FROM cuts "
        "JOIN r ON r.rnk <= cuts.k GROUP BY cuts.k) "
        "SELECT CAST(m.k AS BIGINT) AS k, CAST(m.used AS BIGINT) AS "
        "n_types_used, m.covered AS covered_occ, t.total AS "
        "total_occ, CAST(m.covered AS DOUBLE) / "
        "CAST(t.total AS DOUBLE) AS coverage FROM m, t"
    )
    out["hill_order_values"] = (
        # exact top-501 cents, micro-nat quantized lns, the 501st as
        # the threshold, one division
        "WITH src AS (SELECT CAST(floor(o_totalprice * 100) AS "
        "BIGINT) AS c FROM orders WHERE o_totalprice IS NOT NULL), "
        "topk AS (SELECT c, row_number() OVER (ORDER BY c DESC) AS "
        "rnk FROM src QUALIFY rnk <= 501), "
        "q AS (SELECT rnk, c, CAST(floor(ln(CAST(c AS DOUBLE)) * "
        "1000000.0) AS BIGINT) AS lnq FROM topk), "
        "g AS (SELECT CAST(sum(lnq) FILTER (WHERE rnk <= 500) AS "
        "BIGINT) AS s, CAST(min(c) AS BIGINT) AS x_k1, "
        "CAST((SELECT lnq FROM q WHERE rnk = 501) AS BIGINT) AS "
        "lnq_k1 FROM q) "
        "SELECT CAST(500 AS BIGINT) AS k, x_k1, s AS s_lnq, "
        "CAST(500 * 1000000 AS DOUBLE) / "
        "CAST(s - 500 * lnq_k1 AS DOUBLE) AS alpha FROM g"
    )
    out["rbo_sparse_dense"] = (
        # the two leg rankings hybrid_rrf pins, prefix overlaps per
        # depth, integer-quantized weights, one float finish
        "WITH bm AS (SELECT doc_id, score FROM ("
        + bm25_oracle_sql(_BM25_TERMS)
        + ")), "
        "br AS (SELECT doc_id, CAST(row_number() OVER (ORDER BY "
        "score DESC, doc_id) AS BIGINT) AS ra FROM bm QUALIFY "
        "ra <= 20), "
        "kr AS (SELECT e.vec_id AS doc_id, CAST(row_number() OVER "
        "(ORDER BY list_cosine_similarity((SELECT embedding FROM "
        "embeddings WHERE vec_id = 0), e.embedding) DESC, e.vec_id) "
        "AS BIGINT) AS rb FROM embeddings e QUALIFY rb <= 20), "
        "dd AS (SELECT unnest(range(1, 21)) AS d), "
        "x AS (SELECT dd.d, CAST((SELECT count(*) FROM br JOIN kr "
        "USING (doc_id) WHERE br.ra <= dd.d AND kr.rb <= dd.d) AS "
        "BIGINT) AS x_d FROM dd), "
        "w AS (SELECT d, x_d, x_d * CAST(floor(power(0.9, "
        "CAST(d - 1 AS DOUBLE)) / CAST(d AS DOUBLE) * "
        "1000000000000.0) AS BIGINT) AS term_q FROM x), "
        "s AS (SELECT CAST(sum(term_q) AS BIGINT) AS s_q FROM w) "
        "SELECT CAST(w.d AS BIGINT) AS d, w.x_d, w.term_q, s.s_q, "
        "(1.0 - 0.9) * (CAST(s.s_q AS DOUBLE) / 1000000000000.0) "
        "AS rbo FROM w, s"
    )
    out["vda_click_view"] = (
        # doubled pair counts over the value histogram stay integral
        # through ties; one float division + the rank-biserial map
        "WITH c AS (SELECT CAST(floor(value * 100) AS BIGINT) AS v, "
        "event_type AS g FROM events WHERE event_type IN ('click', "
        "'view') AND value IS NOT NULL), "
        "h AS (SELECT v, CAST(count(*) FILTER (WHERE g = 'click') "
        "AS BIGINT) AS na_c, CAST(count(*) FILTER (WHERE g = "
        "'view') AS BIGINT) AS nb_c FROM c GROUP BY 1), "
        "t AS (SELECT CAST(sum(na_c) AS HUGEINT) AS na, "
        "CAST(sum(nb_c) AS HUGEINT) AS nb FROM h), "
        "w AS (SELECT v, na_c, nb_c, coalesce(sum(nb_c) OVER "
        "(ORDER BY v ROWS BETWEEN UNBOUNDED PRECEDING AND 1 "
        "PRECEDING), 0) AS cb FROM h), "
        "s AS (SELECT CAST(sum(CAST(na_c AS HUGEINT) * "
        "(2 * cb + nb_c)) AS HUGEINT) AS num2 FROM w) "
        "SELECT CAST(t.na AS BIGINT) AS n_a, CAST(t.nb AS BIGINT) "
        "AS n_b, CAST(s.num2 AS DOUBLE) AS num2, "
        "CAST(s.num2 AS DOUBLE) / CAST(2 * t.na * t.nb AS DOUBLE) "
        "AS vda_a, 2.0 * (CAST(s.num2 AS DOUBLE) / "
        "CAST(2 * t.na * t.nb AS DOUBLE)) - 1.0 AS r_rb FROM t, s"
    )
    out["wasserstein_click_view"] = (
        # CDF-area numerator over the distinct-value histogram in
        # exact HUGEINT; one float division
        "WITH c AS (SELECT CAST(floor(value * 100) AS BIGINT) AS v, "
        "event_type AS g FROM events WHERE event_type IN ('click', "
        "'view') AND value IS NOT NULL), "
        "h AS (SELECT v, CAST(count(*) FILTER (WHERE g = 'click') "
        "AS BIGINT) AS na_c, CAST(count(*) FILTER (WHERE g = "
        "'view') AS BIGINT) AS nb_c FROM c GROUP BY 1), "
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
    )
    out["sprt_click_view"] = (
        # micro-nat integer LLR walk in (ts, id) order; first bound
        # crossing or the 'continue' fallback row
        "WITH k AS (SELECT CAST(floor(ln(0.55 / 0.45) * 1000000.0) "
        "AS BIGINT) AS q1, CAST(floor(ln((1.0 - 0.55) / "
        "(1.0 - 0.45)) * 1000000.0) AS BIGINT) AS q0, "
        "CAST(floor(ln((1.0 - 0.05) / 0.05) * 1000000.0) AS BIGINT) "
        "AS thr), "
        "s AS (SELECT e.ts, e.event_id, CASE WHEN e.event_type = "
        "'click' THEN k.q1 ELSE k.q0 END AS step FROM events e, k "
        "WHERE e.event_type IN ('click', 'view')), "
        "w AS (SELECT sum(step) OVER (ORDER BY ts, event_id ROWS "
        "UNBOUNDED PRECEDING) AS llr, row_number() OVER (ORDER BY "
        "ts, event_id) AS n FROM s), "
        "x AS (SELECT n, CAST(llr AS BIGINT) AS llr_q FROM w, k "
        "WHERE llr >= k.thr OR llr <= -k.thr ORDER BY n LIMIT 1) "
        "SELECT CAST(n AS BIGINT) AS n, llr_q, CASE WHEN llr_q >= "
        "(SELECT thr FROM k) THEN 'accept_h1' ELSE 'accept_h0' END "
        "AS decision FROM x "
        "UNION ALL SELECT CAST((SELECT count(*) FROM s) AS BIGINT), "
        "CAST((SELECT sum(step) FROM s) AS BIGINT), 'continue' "
        "WHERE NOT EXISTS (SELECT 1 FROM x)"
    )
    out["seq_patterns_3"] = (
        # all 125 ordered 3-type subsequence patterns vs per-user
        # initial strings; top-10 by user support
        "WITH seq AS (SELECT user_id, string_agg(substr(event_type, "
        "1, 1), '' ORDER BY ts, event_id) AS s FROM events "
        "GROUP BY user_id), "
        "t1 AS (SELECT unnest(['c','e','p','s','v']) AS a), "
        "t2 AS (SELECT unnest(['c','e','p','s','v']) AS b), "
        "t3 AS (SELECT unnest(['c','e','p','s','v']) AS c), "
        "pats AS (SELECT a || '.*' || b || '.*' || c AS pattern "
        "FROM t1, t2, t3), "
        "m AS (SELECT p.pattern, CAST(count(*) FILTER (WHERE "
        "len(regexp_extract_all(q.s, p.pattern)) > 0) AS BIGINT) AS "
        "n_users, CAST(sum(len(regexp_extract_all(q.s, p.pattern))) "
        "AS BIGINT) AS n_matches FROM pats p CROSS JOIN seq q "
        "GROUP BY 1) "
        "SELECT pattern, n_users, n_matches FROM m "
        "ORDER BY n_users DESC, pattern LIMIT 10"
    )
    out["cooks_lineitems"] = (
        # HUGEINT moments -> closed-form OLS -> per-row residual x
        # leverage in the identical float tree; deterministic top-k
        "WITH src AS (SELECT l_orderkey, CAST(l_linenumber AS "
        "BIGINT) AS l_linenumber, CAST(l_quantity AS BIGINT) AS x, "
        "CAST(floor(l_extendedprice) AS BIGINT) AS y FROM lineitem "
        "WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT "
        "NULL), "
        "m AS (SELECT CAST(count(*) AS HUGEINT) AS n, "
        "CAST(sum(x) AS HUGEINT) AS sx, CAST(sum(y) AS HUGEINT) AS "
        "sy, CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx, "
        "CAST(sum(CAST(y AS HUGEINT) * y) AS HUGEINT) AS syy, "
        "CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy "
        "FROM src), "
        "g AS (SELECT CAST(n AS DOUBLE) AS n_f, CAST(sx AS DOUBLE) "
        "AS sx_f, CAST(sy AS DOUBLE) AS sy_f, "
        "CAST(n * sxx - sx * sx AS DOUBLE) AS cxx_f, "
        "CAST(n * sxy - sx * sy AS DOUBLE) AS cxy_f, "
        "CAST(n * syy - sy * sy AS DOUBLE) AS cyy_f FROM m), "
        "h AS (SELECT *, cxy_f / cxx_f AS b_f FROM g), "
        "i AS (SELECT *, (sy_f - b_f * sx_f) / n_f AS a_f, "
        "((cyy_f - (cxy_f * cxy_f) / cxx_f) / n_f) / (n_f - 2.0) "
        "AS s2 FROM h), "
        "p AS (SELECT s.l_orderkey, s.l_linenumber, s.x, s.y, "
        "CAST(s.y AS DOUBLE) - (i.a_f + i.b_f * CAST(s.x AS "
        "DOUBLE)) AS e, CAST(s.x AS DOUBLE) * i.n_f - i.sx_f AS u, "
        "i.n_f, i.cxx_f, i.s2 FROM src s, i), "
        "q AS (SELECT l_orderkey, l_linenumber, x, y, e, "
        "1.0 / n_f + (u * u) / (n_f * cxx_f) AS hh, s2 FROM p) "
        "SELECT l_orderkey, l_linenumber, x, y, "
        "e * e * hh / (2.0 * s2 * ((1.0 - hh) * (1.0 - hh))) AS "
        "cook FROM q ORDER BY cook DESC, l_orderkey, l_linenumber "
        "LIMIT 20"
    )
    out["partial_corr_qpd"] = (
        # nine HUGEINT moments, single-float correlation tree
        "WITH src AS (SELECT CAST(l_quantity AS BIGINT) AS x, "
        "CAST(floor(l_extendedprice) AS BIGINT) AS y, "
        "CAST(floor(l_discount * 1000) AS BIGINT) AS z FROM "
        "lineitem WHERE l_quantity IS NOT NULL AND l_extendedprice "
        "IS NOT NULL AND l_discount IS NOT NULL), "
        "m AS (SELECT CAST(count(*) AS HUGEINT) AS n, "
        "CAST(sum(x) AS HUGEINT) AS sx, CAST(sum(y) AS HUGEINT) AS "
        "sy, CAST(sum(z) AS HUGEINT) AS sz, "
        "CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx, "
        "CAST(sum(CAST(y AS HUGEINT) * y) AS HUGEINT) AS syy, "
        "CAST(sum(CAST(z AS HUGEINT) * z) AS HUGEINT) AS szz, "
        "CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy, "
        "CAST(sum(CAST(x AS HUGEINT) * z) AS HUGEINT) AS sxz, "
        "CAST(sum(CAST(y AS HUGEINT) * z) AS HUGEINT) AS syz "
        "FROM src), "
        "c AS (SELECT CAST(n AS BIGINT) AS n, "
        "n * sxx - sx * sx AS cxx, n * syy - sy * sy AS cyy, "
        "n * szz - sz * sz AS czz, n * sxy - sx * sy AS cxy, "
        "n * sxz - sx * sz AS cxz, n * syz - sy * sz AS cyz "
        "FROM m), "
        "r AS (SELECT n, CAST(cxy AS DOUBLE) / "
        "sqrt(CAST(cxx AS DOUBLE) * CAST(cyy AS DOUBLE)) AS r_xy, "
        "CAST(cxz AS DOUBLE) / sqrt(CAST(cxx AS DOUBLE) * "
        "CAST(czz AS DOUBLE)) AS r_xz, CAST(cyz AS DOUBLE) / "
        "sqrt(CAST(cyy AS DOUBLE) * CAST(czz AS DOUBLE)) AS r_yz "
        "FROM c) "
        "SELECT n, r_xy, r_xz, r_yz, CASE WHEN "
        "(1.0 - r_xz * r_xz) * (1.0 - r_yz * r_yz) > 0.0 THEN "
        "(r_xy - r_xz * r_yz) / sqrt((1.0 - r_xz * r_xz) * "
        "(1.0 - r_yz * r_yz)) END AS r_partial FROM r"
    )
    out["na_hazard"] = (
        # the km_retention span CTE with additive running hazard and
        # variance sums in ascending-duration frame order
        "WITH e AS (SELECT user_id, epoch_us(ts) // 86400000000 "
        "AS day FROM events), "
        "u AS (SELECT user_id, min(day) AS f, max(day) AS l "
        "FROM e GROUP BY 1), "
        "mx AS (SELECT max(day) AS m FROM e), "
        "d AS (SELECT l - f AS dur, "
        "CASE WHEN l = m THEN 1 ELSE 0 END AS cens FROM u, mx), "
        "h AS (SELECT dur, CAST(count(*) FILTER (WHERE cens = 0) "
        "AS BIGINT) AS deaths, CAST(count(*) AS BIGINT) AS total "
        "FROM d GROUP BY 1), "
        "r AS (SELECT dur, deaths, CAST((SELECT sum(h2.total) "
        "FROM h h2 WHERE h2.dur >= h.dur) AS BIGINT) AS at_risk "
        "FROM h WHERE deaths > 0) "
        "SELECT dur, deaths, at_risk, "
        "sum(CAST(deaths AS DOUBLE) / CAST(at_risk AS DOUBLE)) "
        "OVER (ORDER BY dur ROWS UNBOUNDED PRECEDING) AS na_hazard, "
        "sum(CAST(deaths AS DOUBLE) / (CAST(at_risk AS DOUBLE) * "
        "CAST(at_risk AS DOUBLE))) OVER (ORDER BY dur ROWS "
        "UNBOUNDED PRECEDING) AS na_var FROM r"
    )
    out["mahalanobis_lineitems"] = (
        # exact HUGEINT moments; one identical per-row float
        # distance expression; deterministic top-k
        "WITH src AS (SELECT l_orderkey, CAST(l_linenumber AS "
        "BIGINT) AS l_linenumber, CAST(l_quantity AS BIGINT) AS x, "
        "CAST(floor(l_extendedprice) AS BIGINT) AS y FROM lineitem "
        "WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT "
        "NULL), "
        "m AS (SELECT CAST(count(*) AS HUGEINT) AS n, "
        "CAST(sum(x) AS HUGEINT) AS sx, CAST(sum(y) AS HUGEINT) AS "
        "sy, CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx, "
        "CAST(sum(CAST(y AS HUGEINT) * y) AS HUGEINT) AS syy, "
        "CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy "
        "FROM src), "
        "g AS (SELECT CAST(n AS DOUBLE) AS n_f, CAST(sx AS DOUBLE) "
        "AS sx_f, CAST(sy AS DOUBLE) AS sy_f, "
        "CAST(n * sxx - sx * sx AS DOUBLE) AS a_f, "
        "CAST(n * sxy - sx * sy AS DOUBLE) AS b_f, "
        "CAST(n * syy - sy * sy AS DOUBLE) AS c_f, "
        "CAST((n * sxx - sx * sx) * (n * syy - sy * sy) - "
        "(n * sxy - sx * sy) * (n * sxy - sx * sy) AS DOUBLE) AS "
        "dd_f FROM m), "
        "p AS (SELECT s.l_orderkey, s.l_linenumber, s.x, s.y, "
        "CAST(s.x AS DOUBLE) * g.n_f - g.sx_f AS u, "
        "CAST(s.y AS DOUBLE) * g.n_f - g.sy_f AS v, "
        "g.a_f, g.b_f, g.c_f, g.dd_f FROM src s, g) "
        "SELECT l_orderkey, l_linenumber, x, y, "
        "(c_f * u * u - 2.0 * b_f * u * v + a_f * v * v) / dd_f "
        "AS d2 FROM p ORDER BY d2 DESC, l_orderkey, l_linenumber "
        "LIMIT 20"
    )
    out["hard_negatives"] = (
        # different-label cosine top-3 per anchor; ids only (the knn
        # convention -- rank floats stay engine-internal)
        "WITH a AS (SELECT vec_id, embedding, label FROM embeddings "
        "WHERE vec_id < 5) "
        "SELECT a.vec_id AS anchor, b.vec_id AS neg FROM a "
        "JOIN embeddings b ON b.label <> a.label "
        "QUALIFY row_number() OVER (PARTITION BY a.vec_id ORDER BY "
        "list_cosine_similarity(a.embedding, b.embedding) DESC, "
        "b.vec_id) <= 3"
    )
    out["rolling_p95_days"] = (
        # RANGE-frame windowed discrete quantile; int breach test
        "WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS "
        "bucket, CAST(sum(CAST(floor(o_totalprice * 100) AS BIGINT)) "
        "AS BIGINT) AS x FROM orders WHERE o_orderdate IS NOT NULL "
        "AND o_totalprice IS NOT NULL GROUP BY 1), "
        "w AS (SELECT bucket, x, quantile_disc(x, 0.95) OVER "
        "(ORDER BY bucket RANGE BETWEEN 28 PRECEDING AND 1 "
        "PRECEDING) AS p_hi, CAST(count(x) OVER (ORDER BY bucket "
        "RANGE BETWEEN 28 PRECEDING AND 1 PRECEDING) AS BIGINT) AS "
        "n_window FROM d) "
        "SELECT CAST(bucket AS BIGINT) AS bucket, x, p_hi, n_window "
        "FROM w WHERE x > p_hi"
    )
    out["dbscan_embeddings"] = (
        # exact all-pairs cosine neighbor graph, core degree rule,
        # reachability-min cluster labels, min-core-neighbor borders
        "WITH RECURSIVE v AS (SELECT vec_id FROM embeddings), "
        "e AS (SELECT a.vec_id AS na, b.vec_id AS nb "
        "FROM embeddings a, embeddings b WHERE a.vec_id < b.vec_id "
        "AND list_cosine_similarity(a.embedding, b.embedding) >= "
        "0.9), "
        "deg AS (SELECT vec_id, CAST(count(*) AS BIGINT) AS d FROM "
        "(SELECT na AS vec_id FROM e UNION ALL SELECT nb FROM e) "
        "GROUP BY 1), "
        "core AS (SELECT v.vec_id FROM v JOIN deg USING (vec_id) "
        "WHERE deg.d >= 2), "
        "ce AS (SELECT na, nb FROM e WHERE na IN (SELECT vec_id "
        "FROM core) AND nb IN (SELECT vec_id FROM core)), "
        "reach(node, lab) AS (SELECT vec_id, vec_id FROM core "
        "UNION SELECT CASE WHEN r.node = ce.nb THEN ce.na "
        "ELSE ce.nb END, r.lab FROM reach r JOIN ce "
        "ON r.node = ce.na OR r.node = ce.nb), "
        "lab AS (SELECT node AS vec_id, min(lab) AS cl FROM reach "
        "GROUP BY 1), "
        "border AS (SELECT x.vec_id, min(l.cl) AS cl FROM "
        "(SELECT na AS vec_id, nb AS nb FROM e "
        "UNION ALL SELECT nb, na FROM e) x "
        "JOIN lab l ON x.nb = l.vec_id "
        "WHERE x.vec_id NOT IN (SELECT vec_id FROM core) "
        "GROUP BY 1) "
        "SELECT v.vec_id, CASE WHEN c.cl IS NOT NULL THEN 'core' "
        "WHEN b.cl IS NOT NULL THEN 'border' ELSE 'noise' END AS "
        "role, coalesce(c.cl, b.cl) AS cluster_id "
        "FROM v LEFT JOIN lab c ON v.vec_id = c.vec_id "
        "LEFT JOIN border b ON v.vec_id = b.vec_id"
    )
    out["seasonal_strength_dow"] = (
        # per-phase means, identical quantized-residual expression,
        # HUGEINT variance moments, one float division
        "WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS "
        "bucket, CAST(sum(CAST(floor(o_totalprice * 100) AS BIGINT)) "
        "AS BIGINT) AS x FROM orders WHERE o_orderdate IS NOT NULL "
        "AND o_totalprice IS NOT NULL GROUP BY 1), "
        "p AS (SELECT ((bucket + 4) % 7) AS phase, bucket, x "
        "FROM d), "
        "m AS (SELECT phase, CAST(count(*) AS BIGINT) AS n_p, "
        "CAST(sum(x) AS BIGINT) AS s_p FROM p GROUP BY 1), "
        "r AS (SELECT p.phase, p.x, CAST(floor((CAST(p.x AS DOUBLE) "
        "- CAST(m.s_p AS DOUBLE) / CAST(m.n_p AS DOUBLE)) * 1000.0) "
        "AS BIGINT) AS r_q FROM p JOIN m USING (phase)), "
        "mm AS (SELECT CAST(count(*) AS HUGEINT) AS k, "
        "CAST(sum(r_q) AS HUGEINT) AS sr, "
        "CAST(sum(CAST(r_q AS HUGEINT) * r_q) AS HUGEINT) AS srr, "
        "CAST(sum(CAST(x AS HUGEINT) * 1000) AS HUGEINT) AS sx, "
        "CAST(sum((CAST(x AS HUGEINT) * 1000) * (CAST(x AS HUGEINT) "
        "* 1000)) AS HUGEINT) AS sxx FROM r), "
        "g AS (SELECT k, k * srr - sr * sr AS num, "
        "k * sxx - sx * sx AS den FROM mm) "
        "SELECT m.phase, m.n_p, CAST(m.s_p AS DOUBLE) AS s_p, "
        "CAST(m.s_p AS DOUBLE) / CAST(m.n_p AS DOUBLE) AS "
        "phase_mean, CAST(g.k AS BIGINT) AS k, "
        "CASE WHEN g.den > 0 THEN 1.0 - CAST(g.num AS DOUBLE) / "
        "CAST(g.den AS DOUBLE) END AS strength FROM m, g"
    )
    out["mus_orders"] = (
        # window cumsum over key order; straddle test and hit counts
        # in exact integer arithmetic
        "WITH o AS (SELECT o_orderkey AS k, CAST(floor(o_totalprice "
        "* 100) AS BIGINT) AS c FROM orders WHERE o_orderkey IS NOT "
        "NULL AND o_totalprice IS NOT NULL), "
        "t AS (SELECT CAST(sum(c) AS HUGEINT) // 500 AS ti FROM o), "
        "w AS (SELECT k, c, sum(c) OVER (ORDER BY k ROWS UNBOUNDED "
        "PRECEDING) AS cum FROM o) "
        "SELECT w.k AS orderkey, w.c AS cents, "
        "CAST(w.cum // t.ti - (w.cum - w.c) // t.ti AS BIGINT) AS "
        "n_hits FROM w, t WHERE w.cum // t.ti > (w.cum - w.c) // t.ti"
    )
    out["supplier_busy_days"] = (
        # window max-over-preceding island merge of [order, ship]
        # day intervals; inclusive-day span sums
        "WITH iv AS (SELECT l_suppkey AS suppkey, "
        "epoch_us(o_orderdate) // 86400000000 AS a, "
        "epoch_us(l_shipdate) // 86400000000 AS b "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE o_orderdate IS NOT NULL AND l_shipdate IS NOT NULL "
        "AND epoch_us(l_shipdate) // 86400000000 >= "
        "epoch_us(o_orderdate) // 86400000000), "
        "w AS (SELECT suppkey, a, b, max(b) OVER (PARTITION BY "
        "suppkey ORDER BY a, b ROWS BETWEEN UNBOUNDED PRECEDING AND "
        "1 PRECEDING) AS pm FROM iv), "
        "isl AS (SELECT suppkey, a, b, sum(CASE WHEN pm IS NULL OR "
        "a > pm + 1 THEN 1 ELSE 0 END) OVER (PARTITION BY suppkey "
        "ORDER BY a, b ROWS UNBOUNDED PRECEDING) AS g FROM w), "
        "m AS (SELECT suppkey, g, min(a) AS a0, max(b) AS b1 FROM "
        "isl GROUP BY suppkey, g) "
        "SELECT suppkey, CAST(count(*) AS BIGINT) AS n_spans, "
        "CAST(sum(b1 - a0 + 1) AS BIGINT) AS busy_days FROM m "
        "GROUP BY 1"
    )
    out["shard_skew_profile"] = (
        # per-file row counts straight off the shard glob; share and
        # skew ratio as single float expressions of exact ints
        "WITH f AS (SELECT regexp_extract(filename, '[^/]+$') AS "
        "file, CAST(count(*) AS BIGINT) AS n_rows FROM "
        f"read_parquet('{_SF001_GLOB}', filename=true) "
        "GROUP BY 1), "
        "t AS (SELECT CAST(sum(n_rows) AS BIGINT) AS total, "
        "CAST(count(*) AS BIGINT) AS k FROM f) "
        "SELECT f.file, f.n_rows, CAST(f.n_rows AS DOUBLE) / "
        "CAST(t.total AS DOUBLE) AS share, "
        "CAST(f.n_rows * t.k AS DOUBLE) / CAST(t.total AS DOUBLE) "
        "AS skew FROM f, t"
    )
    out["anova_value_type"] = (
        # exact integer group moments, micro-unit quantized SSB/SSW
        # via the identical HUGEINT truncating divisions, one float F
        "WITH g AS (SELECT event_type AS grp, CAST(count(*) AS "
        "BIGINT) AS n_g, CAST(sum(CAST(floor(value * 100) AS "
        "BIGINT)) AS BIGINT) AS s_g, CAST(sum(CAST(floor(value * "
        "100) AS BIGINT) * CAST(floor(value * 100) AS BIGINT)) AS "
        "HUGEINT) AS ss_g FROM events WHERE event_type IS NOT NULL "
        "AND value IS NOT NULL GROUP BY 1), "
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
        "CAST(f.ssb_q AS DOUBLE) / CAST(f.ssb_q + f.ssw_q AS DOUBLE) "
        "END AS eta2 FROM q, f"
    )
    out["event_regex_funnels"] = (
        # ordered per-user initial strings, RE2 non-overlapping scans
        "WITH seq AS (SELECT user_id, string_agg("
        "substr(event_type, 1, 1), '' ORDER BY ts, event_id) AS s "
        "FROM events GROUP BY user_id), "
        "pats AS (SELECT unnest(['vc', 'v[^p]*p', 'ee+']) AS "
        "pattern) "
        "SELECT p.pattern, CAST(count(*) FILTER (WHERE "
        "len(regexp_extract_all(q.s, p.pattern)) > 0) AS BIGINT) AS "
        "n_users, CAST(sum(len(regexp_extract_all(q.s, p.pattern))) "
        "AS BIGINT) AS n_matches "
        "FROM pats p CROSS JOIN seq q GROUP BY 1"
    )
    out["rake_keyphrases"] = (
        # the identical RE2 normalization chain (lower, double-space
        # word gaps, stopword barriers), integer deg/freq word scores,
        # exact per-occurrence phrase score recovery
        "WITH s AS (SELECT '  ' || regexp_replace(lower("
        "coalesce(text, '')), '[^a-z0-9]+', '  ', 'g') || '  ' AS t "
        "FROM documents), "
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
        "ps AS (SELECT pw.phrase, CAST(sum(wq.score_w) AS BIGINT) AS "
        "total_q, CAST(count(*) AS BIGINT) AS n_wi, "
        "any_value(pw.plen) AS plen FROM pw JOIN wq USING (w) "
        "GROUP BY pw.phrase), "
        "fin AS (SELECT phrase, n_wi // plen AS n_occ, "
        "total_q // (n_wi // plen) AS score_q FROM ps) "
        "SELECT phrase, CAST(n_occ AS BIGINT) AS n_occ, score_q "
        "FROM fin ORDER BY score_q DESC, phrase LIMIT 20"
    )
    out["ppl_buckets_docs"] = (
        # unigram micro-nat LM (the unigram_lm CTE), truncating //
        # milli-nat-per-token score, quantile_disc terciles per source
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
        "AS BIGINT) AS lp FROM cnt), "
        "doc AS (SELECT o.doc_id, CAST(sum(o.n_occ) AS BIGINT) AS "
        "n_tokens, CAST(sum(o.n_occ * l.lp) AS BIGINT) AS lpq "
        "FROM occ o JOIN lp l USING (tok) GROUP BY o.doc_id), "
        "sc AS (SELECT d.doc_id, coalesce(dd.source, '') AS source, "
        "d.lpq // (1000 * d.n_tokens) AS score_q "
        "FROM doc d JOIN documents dd USING (doc_id)), "
        "th AS (SELECT source, CAST(quantile_disc(score_q, 1.0/3) "
        "AS BIGINT) AS t33, CAST(quantile_disc(score_q, 2.0/3) "
        "AS BIGINT) AS t66 FROM sc GROUP BY source), "
        "b AS (SELECT sc.source, CASE WHEN sc.score_q <= th.t33 "
        "THEN 'tail' WHEN sc.score_q <= th.t66 THEN 'middle' "
        "ELSE 'head' END AS bucket FROM sc JOIN th USING (source)) "
        "SELECT source, bucket, CAST(count(*) AS BIGINT) AS n_docs "
        "FROM b GROUP BY 1, 2"
    )
    out["gumbel_weekly_max"] = (
        # weekly exact-cents block maxima, HUGEINT moments, method-of-
        # moments Gumbel fit as single float expressions
        "WITH d AS (SELECT epoch_us(o_orderdate) // 604800000000 AS "
        "bucket, CAST(max(CAST(floor(o_totalprice * 100) AS BIGINT)) "
        "AS BIGINT) AS x FROM orders WHERE o_orderdate IS NOT NULL "
        "AND o_totalprice IS NOT NULL GROUP BY 1), "
        "m AS (SELECT CAST(count(*) AS BIGINT) AS k, "
        "CAST(sum(x) AS HUGEINT) AS sx, "
        "CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx FROM d), "
        "g AS (SELECT k, sx, sxx, "
        "CAST(sx AS DOUBLE) / CAST(k AS DOUBLE) AS mean, "
        "CAST(k * sxx - sx * sx AS DOUBLE) / "
        "CAST(k * (k - 1) AS DOUBLE) AS var FROM m) "
        "SELECT k, CAST(sx AS DOUBLE) AS s_x, CAST(sxx AS DOUBLE) AS "
        "s_xx, mean, var, sqrt(var) * (sqrt(6) / pi()) AS beta, "
        "mean - 0.5772156649015329 * (sqrt(var) * (sqrt(6) / pi())) "
        "AS mu FROM g"
    )
    out["xcorr_orders_events"] = (
        # lag-unnested join of the two exact-int daily series;
        # Pearson r per lag from HUGEINT moments
        "WITH da AS (SELECT epoch_us(o_orderdate) // 86400000000 AS "
        "bucket, CAST(sum(CAST(floor(o_totalprice * 100) AS BIGINT)) "
        "AS BIGINT) AS x FROM orders WHERE o_orderdate IS NOT NULL "
        "AND o_totalprice IS NOT NULL GROUP BY 1), "
        "db AS (SELECT epoch_us(ts) // 86400000000 AS bucket, "
        "CAST(count(*) AS BIGINT) AS x FROM events WHERE ts IS NOT "
        "NULL AND event_id IS NOT NULL GROUP BY 1), "
        "la AS (SELECT unnest(range(-7, 8)) AS lag), "
        "j AS (SELECT la.lag, a.x AS xa, b.x AS xb FROM la "
        "CROSS JOIN da a JOIN db b ON b.bucket = a.bucket + la.lag), "
        "m AS (SELECT lag, CAST(count(*) AS BIGINT) AS k, "
        "CAST(sum(xa) AS HUGEINT) AS sx, "
        "CAST(sum(xb) AS HUGEINT) AS sy, "
        "CAST(sum(CAST(xa AS HUGEINT) * xa) AS HUGEINT) AS sxx, "
        "CAST(sum(CAST(xb AS HUGEINT) * xb) AS HUGEINT) AS syy, "
        "CAST(sum(CAST(xa AS HUGEINT) * xb) AS HUGEINT) AS sxy "
        "FROM j GROUP BY 1) "
        "SELECT la.lag, coalesce(m.k, 0) AS k, "
        "CASE WHEN m.k >= 2 AND m.k * m.sxx - m.sx * m.sx > 0 AND "
        "m.k * m.syy - m.sy * m.sy > 0 THEN "
        "CAST(m.k * m.sxy - m.sx * m.sy AS DOUBLE) / "
        "sqrt(CAST(m.k * m.sxx - m.sx * m.sx AS DOUBLE) * "
        "CAST(m.k * m.syy - m.sy * m.sy AS DOUBLE)) END AS r "
        "FROM la LEFT JOIN m ON la.lag = m.lag"
    )
    out["theil_sen_daily"] = (
        # pairwise-slope median over the bounded daily series;
        # DuckDB median == the engine's (a+b)/2 even-count rule
        "WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS "
        "bucket, CAST(sum(CAST(floor(o_totalprice * 100) AS BIGINT)) "
        "AS BIGINT) AS x FROM orders WHERE o_orderdate IS NOT NULL "
        "AND o_totalprice IS NOT NULL GROUP BY 1), "
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
    )
    out["mk_trend_daily"] = (
        # Kendall tau-b of (day, daily cents): the kendall template
        # over the bounded daily aggregate (time side tie-free)
        "WITH src AS (SELECT epoch_us(o_orderdate) // 86400000000 AS "
        "x, CAST(sum(CAST(floor(o_totalprice * 100) AS BIGINT)) "
        "AS BIGINT) AS y FROM orders WHERE o_orderdate IS NOT NULL "
        "AND o_totalprice IS NOT NULL GROUP BY 1), "
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
    )
    out["slo_burn"] = (
        # two-window burn rule, integer cross-multiplication only;
        # RANGE window over hour values matches the searchsorted
        # prefix-diff exactly
        "WITH h AS (SELECT epoch_us(ts) // 3600000000 AS hour, "
        "CAST(count(*) AS BIGINT) AS n, CAST(count(*) FILTER ("
        "WHERE event_type = 'error') AS BIGINT) AS e FROM events "
        "WHERE ts IS NOT NULL GROUP BY 1), "
        "w AS (SELECT hour, n, e, CAST(sum(n) OVER (ORDER BY hour "
        "RANGE BETWEEN 5 PRECEDING AND CURRENT ROW) AS BIGINT) AS nw, "
        "CAST(sum(e) OVER (ORDER BY hour RANGE BETWEEN 5 PRECEDING "
        "AND CURRENT ROW) AS BIGINT) AS ew FROM h) "
        "SELECT hour, n AS n_events, e AS n_errors, nw AS n_window, "
        "ew AS e_window, (e * 10 > n AND ew * 20 > nw) AS alert "
        "FROM w"
    )
    out["dow_profile"] = (
        # weekday by epoch integer arithmetic; distinct-day calendar
        # weights partially-covered weeks correctly
        "WITH c AS (SELECT event_type AS k, "
        "epoch_us(ts) // 86400000000 AS day FROM events "
        "WHERE ts IS NOT NULL AND event_type IS NOT NULL), "
        "kd AS (SELECT k, (day + 4) % 7 AS dow, "
        "CAST(count(*) AS BIGINT) AS n FROM c GROUP BY 1, 2), "
        "dd AS (SELECT (day + 4) % 7 AS dow, "
        "CAST(count(*) AS BIGINT) AS nd FROM ("
        "SELECT DISTINCT day FROM c) GROUP BY 1), "
        "tot AS (SELECT CAST(count(*) AS BIGINT) AS d_total FROM ("
        "SELECT DISTINCT day FROM c)), "
        "nk AS (SELECT k, CAST(sum(n) AS BIGINT) AS n_k FROM kd "
        "GROUP BY 1) "
        "SELECT kd.k, CAST(kd.dow AS BIGINT) AS dow, "
        "kd.n AS n_events, dd.nd AS n_days, "
        "CAST(kd.n AS DOUBLE) / CAST(dd.nd AS DOUBLE) "
        "AS events_per_day, "
        "CAST(kd.n * tot.d_total AS DOUBLE) / "
        "CAST(dd.nd * nk.n_k AS DOUBLE) AS season_idx "
        "FROM kd JOIN dd USING (dow) JOIN nk USING (k), tot"
    )
    out["flesch_docs"] = (
        # three RE2 counts -> one float expression, identical
        # association both sides
        "SELECT doc_id, "
        "CAST(len(regexp_extract_all(coalesce(text, ''), '\\S+')) "
        "AS BIGINT) AS n_words, "
        "CAST(greatest(len(regexp_extract_all(coalesce(text, ''), "
        "'[.!?]+')), 1) AS BIGINT) AS n_sentences, "
        "CAST(len(regexp_extract_all(coalesce(text, ''), "
        "'[aeiouyAEIOUY]+')) AS BIGINT) AS n_syllables, "
        "CASE WHEN len(regexp_extract_all(coalesce(text, ''), "
        "'\\S+')) > 0 THEN 206.835 - 1.015 * ("
        "CAST(len(regexp_extract_all(coalesce(text, ''), '\\S+')) "
        "AS DOUBLE) / CAST(greatest(len(regexp_extract_all("
        "coalesce(text, ''), '[.!?]+')), 1) AS DOUBLE)) - 84.6 * ("
        "CAST(len(regexp_extract_all(coalesce(text, ''), "
        "'[aeiouyAEIOUY]+')) AS DOUBLE) / "
        "CAST(len(regexp_extract_all(coalesce(text, ''), '\\S+')) "
        "AS DOUBLE)) END AS flesch FROM documents"
    )
    out["split_leakage_docs"] = (
        # same md5 52-bit-prefix chain and cut literals as
        # split_assign_docs, folded per source
        "WITH s AS (SELECT source, CASE WHEN ('0x' || substr(md5("
        "CAST(doc_id AS VARCHAR)), 1, 13))::BIGINT / "
        "4503599627370496.0 < 0.9 THEN 0 WHEN ('0x' || substr(md5("
        "CAST(doc_id AS VARCHAR)), 1, 13))::BIGINT / "
        "4503599627370496.0 < 0.95 THEN 1 ELSE 2 END AS si "
        "FROM documents), "
        "f AS (SELECT source, CAST(count(*) FILTER (WHERE si = 0) "
        "AS BIGINT) AS n_train, CAST(count(*) FILTER (WHERE si = 1) "
        "AS BIGINT) AS n_val, CAST(count(*) FILTER (WHERE si = 2) "
        "AS BIGINT) AS n_test FROM s GROUP BY 1) "
        "SELECT source, n_train, n_val, n_test, "
        "(n_train > 0 AND n_test > 0) AS leaky FROM f"
    )
    out["part_clustering"] = (
        # degrees + per-node triangles over the ordered edge table;
        # cc = 2*tri / (d*(d-1)), one float expression of exact ints
        "WITH li AS (SELECT l_orderkey, l_partkey FROM lineitem "
        "WHERE l_shipdate >= TIMESTAMP '1998-01-01'), "
        "e AS (SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b "
        "FROM li l1 JOIN li l2 ON l1.l_orderkey = l2.l_orderkey "
        "AND l1.l_partkey < l2.l_partkey), "
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
    )
    out["attribution"] = (
        # last-touch within 7 days; tie rule (ts DESC, id DESC)
        # matches the engine's (user, ts, id) lexsort predecessor
        "WITH p AS (SELECT event_id, user_id, epoch_us(ts) AS t, "
        "CAST(floor(value * 100) AS BIGINT) AS cents FROM events "
        "WHERE event_type = 'purchase' AND ts IS NOT NULL), "
        "tch AS (SELECT event_id, user_id, epoch_us(ts) AS t, "
        "event_type FROM events WHERE event_type IN ('click', 'view') "
        "AND ts IS NOT NULL), "
        "j AS (SELECT p.event_id AS pid, tch.event_type AS attr, "
        "row_number() OVER (PARTITION BY p.event_id "
        "ORDER BY tch.t DESC, tch.event_id DESC) AS rk FROM p "
        "JOIN tch ON p.user_id = tch.user_id AND tch.t < p.t "
        "AND tch.t >= p.t - 604800000000), "
        "b AS (SELECT pid, attr FROM j WHERE rk = 1), "
        "u AS (SELECT coalesce(b.attr, 'none') AS attr_type, p.cents "
        "FROM p LEFT JOIN b ON b.pid = p.event_id) "
        "SELECT attr_type, CAST(count(*) AS BIGINT) AS n_conversions, "
        "CAST(sum(cents) AS BIGINT) AS sum_value_cents FROM u "
        "GROUP BY 1"
    )
    out["psi_value_drift"] = (
        # reference-decile PSI; edges via the percentile_disc rule
        # ceil(i*A/10) in exact integer arithmetic
        "WITH span AS (SELECT (epoch_us(min(ts)) + epoch_us(max(ts)))"
        " // 2 AS mid FROM events), "
        "c AS (SELECT (epoch_us(ts) >= span.mid) AS cur, "
        "CAST(floor(value * 100) AS BIGINT) AS v FROM events, span "
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
    )
    out["interarrival_exp"] = (
        # LAG gaps per key; KS vs Exp(1/mean) at both ECDF step sides
        "WITH o AS (SELECT event_type AS k, epoch_us(ts) AS t "
        "FROM events WHERE ts IS NOT NULL "
        "AND event_type IS NOT NULL), "
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
    )
    out["hysteresis_alerts"] = (
        # state = last_value(mark IGNORE NULLS) over (ts, value);
        # alert = OFF/NULL -> ON edge; ties in (ts, value) share a
        # mark, so the lag pairing is order-independent
        "WITH o AS (SELECT event_type AS k, epoch_us(ts) AS t, value "
        "AS v FROM events WHERE ts IS NOT NULL AND event_type IS NOT "
        "NULL AND value IS NOT NULL), "
        "m AS (SELECT k, t, v, CASE WHEN v >= 100.0 THEN 1 "
        "WHEN v < 40.0 THEN 0 END AS mk FROM o), "
        "s AS (SELECT k, t, v, last_value(mk IGNORE NULLS) OVER "
        "(PARTITION BY k ORDER BY t, v ROWS UNBOUNDED PRECEDING) "
        "AS st FROM m), "
        "s2 AS (SELECT k, st, lag(st) OVER (PARTITION BY k "
        "ORDER BY t, v) AS pst FROM s) "
        "SELECT k AS event_type, CAST(count(*) AS BIGINT) AS n_rows, "
        "CAST(coalesce(sum(CASE WHEN st = 1 THEN 1 END), 0) "
        "AS BIGINT) AS n_on, "
        "CAST(coalesce(sum(CASE WHEN st = 1 AND (pst IS NULL OR "
        "pst <> 1) THEN 1 END), 0) AS BIGINT) AS n_alerts "
        "FROM s2 GROUP BY 1"
    )
    out["fano_burstiness"] = (
        # Fano = (n*S2 - S1^2) / (n*S1) over ALL windows in the span
        # (empty windows are zeros: they move n, not the sums)
        "WITH span AS (SELECT epoch_us(min(ts)) AS mn, "
        "epoch_us(max(ts)) AS mx FROM events WHERE ts IS NOT NULL), "
        "o AS (SELECT event_type AS k, (epoch_us(ts) - span.mn) // "
        "21600000000 AS win FROM events, span WHERE ts IS NOT NULL "
        "AND event_type IS NOT NULL), "
        "wc AS (SELECT k, win, CAST(count(*) AS BIGINT) AS c FROM o "
        "GROUP BY 1, 2), "
        "agg AS (SELECT k, CAST(sum(c) AS BIGINT) AS s1, "
        "CAST(sum(c * c) AS BIGINT) AS s2 FROM wc GROUP BY 1), "
        "nw AS (SELECT (mx - mn) // 21600000000 + 1 AS n FROM span) "
        "SELECT k AS event_type, CAST(nw.n AS BIGINT) AS n_windows, "
        "s1 AS n_events, "
        "CAST(CAST(nw.n AS HUGEINT) * s2 - CAST(s1 AS HUGEINT) * s1 "
        "AS DOUBLE) / CAST(CAST(nw.n AS HUGEINT) * s1 AS DOUBLE) "
        "AS fano FROM agg, nw"
    )
    out["changepoint_value"] = (
        # argmax of g(i) = S1L^2/i + S1R^2/(n-i) over left sizes i in
        # [1, n-1]; exact HUGEINT squares, one float expression, ties
        # to the smallest i -- same tree as the Ray side
        "WITH o AS (SELECT event_type AS k, epoch_us(ts) AS t, "
        "CAST(floor(value * 100) AS BIGINT) AS v FROM events WHERE "
        "ts IS NOT NULL AND event_type IS NOT NULL AND value IS NOT "
        "NULL), "
        "w AS (SELECT k, t, v, CAST(row_number() OVER "
        "(PARTITION BY k ORDER BY t, v) AS BIGINT) AS nl, "
        "CAST(sum(v) OVER (PARTITION BY k ORDER BY t, v "
        "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS s1l, "
        "CAST(count(*) OVER (PARTITION BY k) AS BIGINT) AS n, "
        "CAST(sum(v) OVER (PARTITION BY k) AS BIGINT) AS s1 FROM o), "
        "g AS (SELECT k, nl, t, n, s1l, s1, "
        "CAST(CAST(s1l AS HUGEINT) * s1l AS DOUBLE) / "
        "CAST(nl AS DOUBLE) + "
        "CAST(CAST(s1 - s1l AS HUGEINT) * (s1 - s1l) AS DOUBLE) / "
        "CAST(n - nl AS DOUBLE) AS gst FROM w WHERE nl < n), "
        "r AS (SELECT *, row_number() OVER (PARTITION BY k "
        "ORDER BY gst DESC, nl ASC) AS rn FROM g) "
        "SELECT k AS event_type, n AS n_rows, nl AS split_n, "
        "t AS split_ts_us, "
        "CAST(s1l AS DOUBLE) / CAST(nl AS DOUBLE) AS mean_left, "
        "CAST(s1 - s1l AS DOUBLE) / CAST(n - nl AS DOUBLE) "
        "AS mean_right, gst AS gstat FROM r WHERE rn = 1"
    )
    out["window_movers"] = (
        # max count step between consecutive NON-EMPTY windows; the
        # LAG's NULL first row drops single-window keys
        "WITH span AS (SELECT epoch_us(min(ts)) AS mn FROM events "
        "WHERE ts IS NOT NULL), "
        "o AS (SELECT event_type AS k, (epoch_us(ts) - span.mn) // "
        "21600000000 AS win FROM events, span WHERE ts IS NOT NULL "
        "AND event_type IS NOT NULL), "
        "wc AS (SELECT k, win, CAST(count(*) AS BIGINT) AS c FROM o "
        "GROUP BY 1, 2), "
        "d AS (SELECT k, win, c, lag(win) OVER (PARTITION BY k "
        "ORDER BY win) AS pwin, lag(c) OVER (PARTITION BY k "
        "ORDER BY win) AS pc FROM wc), "
        "r AS (SELECT *, row_number() OVER (PARTITION BY k "
        "ORDER BY c - pc DESC, win ASC) AS rn FROM d "
        "WHERE pwin IS NOT NULL) "
        "SELECT k AS event_type, win, pwin AS prev_win, "
        "pc AS c_prev, c AS c_cur, c - pc AS delta "
        "FROM r WHERE rn = 1"
    )
    out["log_odds_src1"] = (
        # Monroe log-odds, corpus prior: x1=y_a+aw, x2=n_a+a0-y_a-aw,
        # x3=y_b+aw, x4=n_b+a0-y_b-aw; identical left-to-right tree
        "WITH toks AS (SELECT (coalesce(source, '') = 'src1') AS ga, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok "
        "FROM documents), "
        "ct AS (SELECT tok, CAST(coalesce(count(*) FILTER "
        "(WHERE ga), 0) AS BIGINT) AS ya, "
        "CAST(coalesce(count(*) FILTER (WHERE NOT ga), 0) AS BIGINT) "
        "AS yb FROM toks GROUP BY 1), "
        "tot AS (SELECT CAST(sum(ya) AS BIGINT) AS na, "
        "CAST(sum(yb) AS BIGINT) AS nb FROM ct) "
        "SELECT tok, ya AS y_a, yb AS y_b, "
        "(ln(CAST(ya + ya + yb AS DOUBLE)) - "
        "ln(CAST(na + na + nb - ya - ya - yb AS DOUBLE)) - "
        "ln(CAST(yb + ya + yb AS DOUBLE)) + "
        "ln(CAST(nb + na + nb - yb - ya - yb AS DOUBLE))) / "
        "sqrt(1.0 / CAST(ya + ya + yb AS DOUBLE) + "
        "1.0 / CAST(yb + ya + yb AS DOUBLE)) AS z "
        "FROM ct, tot ORDER BY z DESC, tok ASC LIMIT 50"
    )
    out["token_burstiness"] = (
        # Church-Gale occ/df, df >= 5; one float ratio per token
        "WITH pairs AS (SELECT doc_id, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok "
        "FROM documents), "
        "po AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS c "
        "FROM pairs GROUP BY 1, 2), "
        "t AS (SELECT tok, CAST(count(*) AS BIGINT) AS df, "
        "CAST(sum(c) AS BIGINT) AS occ FROM po GROUP BY 1) "
        "SELECT tok, df, occ, CAST(occ AS DOUBLE) / "
        "CAST(df AS DOUBLE) AS burst FROM t WHERE df >= 5 "
        "ORDER BY burst DESC, tok ASC LIMIT 50"
    )
    out["alert_cooldown"] = (
        # the pager-throttling greedy as a recursive CTE: each level
        # finds the next event >= last fired + cooldown per key
        "WITH RECURSIVE o AS (SELECT event_type AS k, epoch_us(ts) "
        "AS t FROM events WHERE ts IS NOT NULL AND event_type IS "
        "NOT NULL), "
        "em AS (SELECT k, min(t) AS t, CAST(1 AS BIGINT) AS i "
        "FROM o GROUP BY k "
        "UNION ALL "
        "SELECT em.k, (SELECT min(o.t) FROM o WHERE o.k = em.k AND "
        "o.t >= em.t + 345600000000), em.i + 1 FROM em "
        "WHERE (SELECT min(o.t) FROM o WHERE o.k = em.k AND "
        "o.t >= em.t + 345600000000) IS NOT NULL) "
        "SELECT k AS event_type, i AS alert_idx, t AS alert_ts_us "
        "FROM em"
    )
    out["mase_windows"] = (
        # zero-filled per-key window series; MASE from exact integer
        # absolute-error sums, cross-multiplied before the division
        "WITH span AS (SELECT epoch_us(min(ts)) AS mn, "
        "epoch_us(max(ts)) AS mx FROM events WHERE ts IS NOT NULL), "
        "nw AS (SELECT (mx - mn) // 21600000000 + 1 AS n FROM span), "
        "o AS (SELECT event_type AS k, (epoch_us(ts) - span.mn) // "
        "21600000000 AS win FROM events, span WHERE ts IS NOT NULL "
        "AND event_type IS NOT NULL), "
        "keys AS (SELECT DISTINCT k FROM o), "
        "grid AS (SELECT k, gs.win FROM keys, (SELECT "
        "unnest(generate_series(0, (SELECT n FROM nw) - 1)) AS win) "
        "gs), "
        "wc AS (SELECT k, win, CAST(count(*) AS BIGINT) AS c FROM o "
        "GROUP BY 1, 2), "
        "f AS (SELECT g.k, g.win, coalesce(wc.c, 0) AS c FROM grid "
        "g LEFT JOIN wc ON wc.k = g.k AND wc.win = g.win), "
        "d AS (SELECT k, c, lag(c, 4) OVER (PARTITION BY k ORDER BY "
        "win) AS cp, lag(c, 1) OVER (PARTITION BY k ORDER BY win) "
        "AS c1 FROM f), "
        "agg AS (SELECT k, CAST(sum(abs(c - cp)) AS BIGINT) AS num, "
        "CAST(sum(abs(c - c1)) AS BIGINT) AS den FROM d GROUP BY 1) "
        "SELECT k AS event_type, CAST((SELECT n FROM nw) AS BIGINT) "
        "AS n_windows, num AS sae_seasonal, den AS sae_naive, "
        "CASE WHEN num IS NOT NULL AND den IS NOT NULL AND den > 0 "
        "THEN CAST(num * ((SELECT n FROM nw) - 1) AS DOUBLE) / "
        "CAST(den * ((SELECT n FROM nw) - 4) AS DOUBLE) END AS mase "
        "FROM agg"
    )
    out["ols_trend"] = (
        # day-quantized normal equations; HUGEINT cross terms, one
        # DOUBLE conversion per factor -- same tree as the engine
        "WITH span AS (SELECT epoch_us(min(ts)) AS mn FROM events "
        "WHERE ts IS NOT NULL), "
        "o AS (SELECT event_type AS k, (epoch_us(ts) - span.mn) // "
        "86400000000 AS t, CAST(floor(value * 100) AS BIGINT) AS v "
        "FROM events, span WHERE ts IS NOT NULL AND event_type IS "
        "NOT NULL AND value IS NOT NULL), "
        "s AS (SELECT k, CAST(count(*) AS BIGINT) AS n, "
        "CAST(sum(t) AS BIGINT) AS st, CAST(sum(v) AS BIGINT) AS sv, "
        "CAST(sum(CAST(t AS HUGEINT) * v) AS BIGINT) AS stv, "
        "CAST(sum(CAST(t AS HUGEINT) * t) AS BIGINT) AS st2, "
        "CAST(sum(CAST(v AS HUGEINT) * v) AS BIGINT) AS sv2 "
        "FROM o GROUP BY 1), "
        "f AS (SELECT k, n, st, sv, "
        "CAST(n AS HUGEINT) * stv - CAST(st AS HUGEINT) * sv AS num, "
        "CAST(n AS HUGEINT) * st2 - CAST(st AS HUGEINT) * st AS "
        "denx, "
        "CAST(n AS HUGEINT) * sv2 - CAST(sv AS HUGEINT) * sv AS "
        "deny FROM s) "
        "SELECT k AS event_type, n, "
        "CASE WHEN denx > 0 THEN CAST(num AS DOUBLE) / "
        "CAST(denx AS DOUBLE) END AS slope_cents_per_day, "
        "CASE WHEN denx > 0 THEN (CAST(sv AS DOUBLE) - "
        "CAST(num AS DOUBLE) / CAST(denx AS DOUBLE) * "
        "CAST(st AS DOUBLE)) / CAST(n AS DOUBLE) END AS "
        "intercept_cents, "
        "CASE WHEN denx > 0 AND deny > 0 THEN CAST(num AS DOUBLE) * "
        "CAST(num AS DOUBLE) / (CAST(denx AS DOUBLE) * "
        "CAST(deny AS DOUBLE)) END AS r2 FROM f"
    )
    out["part_assortativity"] = (
        # Newman degree assortativity over the directed edge list
        "WITH li AS (SELECT l_orderkey, l_partkey FROM lineitem "
        "WHERE l_shipdate >= TIMESTAMP '1998-01-01'), "
        "e AS (SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b "
        "FROM li l1 JOIN li l2 ON l1.l_orderkey = l2.l_orderkey "
        "AND l1.l_partkey < l2.l_partkey), "
        "deg AS (SELECT node, CAST(count(*) AS BIGINT) AS d FROM "
        "(SELECT a AS node FROM e UNION ALL SELECT b FROM e) "
        "GROUP BY 1), "
        "p AS (SELECT da.d AS x, db.d AS y FROM e "
        "JOIN deg da ON da.node = e.a JOIN deg db ON db.node = e.b "
        "UNION ALL SELECT db.d, da.d FROM e "
        "JOIN deg da ON da.node = e.a JOIN deg db ON db.node = e.b), "
        "s AS (SELECT CAST(count(*) AS BIGINT) AS m, "
        "CAST(sum(x) AS BIGINT) AS sx, "
        "CAST(sum(CAST(x AS HUGEINT) * y) AS BIGINT) AS sxy, "
        "CAST(sum(CAST(x AS HUGEINT) * x) AS BIGINT) AS sx2 FROM p) "
        "SELECT m AS n_directed_edges, sx AS sum_deg, "
        "sxy AS sum_xy, sx2 AS sum_x2, "
        "CASE WHEN CAST(m AS HUGEINT) * sx2 - CAST(sx AS HUGEINT) "
        "* sx > 0 THEN "
        "CAST(CAST(m AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * sx "
        "AS DOUBLE) / CAST(CAST(m AS HUGEINT) * sx2 - "
        "CAST(sx AS HUGEINT) * sx AS DOUBLE) END AS assortativity "
        "FROM s"
    )
    out["basket_rules"] = (
        # distinct-group support counts; HUGEINT lift products, one
        # DOUBLE conversion per factor; (lift DESC, a, b) top-k
        "WITH li AS (SELECT DISTINCT l_orderkey AS g, l_partkey AS "
        "i FROM lineitem WHERE l_orderkey IS NOT NULL AND l_partkey "
        "IS NOT NULL), "
        "n AS (SELECT CAST(count(DISTINCT g) AS BIGINT) AS ng "
        "FROM li), "
        "ic AS (SELECT i, CAST(count(*) AS BIGINT) AS c FROM li "
        "GROUP BY 1), "
        "pcnt AS (SELECT x.i AS a, y.i AS b, CAST(count(*) AS "
        "BIGINT) AS cab FROM li x JOIN li y ON x.g = y.g AND "
        "x.i < y.i GROUP BY 1, 2), "
        "f AS (SELECT a, b, cab, ca.c AS ca, cb.c AS cb FROM pcnt "
        "JOIN ic ca ON ca.i = a JOIN ic cb ON cb.i = b "
        "WHERE cab >= 2) "
        "SELECT a, b, cab AS support, "
        "CAST(cab AS DOUBLE) / CAST(ca AS DOUBLE) AS conf_ab, "
        "CAST(cab AS DOUBLE) / CAST(cb AS DOUBLE) AS conf_ba, "
        "CAST(CAST(ng AS HUGEINT) * cab AS DOUBLE) / "
        "CAST(CAST(ca AS HUGEINT) * cb AS DOUBLE) AS lift "
        "FROM f, n ORDER BY lift DESC, a, b LIMIT 50"
    )
    out["markov_entropy"] = (
        # micro-nat quantized conditional entropy per from-state
        "WITH o AS (SELECT user_id AS u, epoch_us(ts) AS t, "
        "event_type AS s FROM events WHERE user_id IS NOT NULL AND "
        "ts IS NOT NULL AND event_type IS NOT NULL), "
        "p AS (SELECT u, s AS f, lead(s) OVER (PARTITION BY u "
        "ORDER BY t) AS nxt FROM o), "
        "c AS (SELECT f, nxt, CAST(count(*) AS BIGINT) AS n FROM p "
        "WHERE nxt IS NOT NULL GROUP BY 1, 2), "
        "tot AS (SELECT f, CAST(sum(n) AS BIGINT) AS cf FROM c "
        "GROUP BY 1) "
        "SELECT c.f AS from_state, tot.cf AS n_from, "
        "CAST(-sum(c.n * CAST(floor((ln(CAST(c.n AS DOUBLE)) - "
        "ln(CAST(tot.cf AS DOUBLE))) * 1000000.0) AS BIGINT)) "
        "AS BIGINT) AS h_q, "
        "CAST(CAST(-sum(c.n * CAST(floor((ln(CAST(c.n AS DOUBLE)) - "
        "ln(CAST(tot.cf AS DOUBLE))) * 1000000.0) AS BIGINT)) "
        "AS BIGINT) AS DOUBLE) / CAST(1000000 * tot.cf AS DOUBLE) "
        "AS h_nats "
        "FROM c JOIN tot USING (f) GROUP BY c.f, tot.cf"
    )
    out["bursty_users"] = (
        # per-user Fano over the global window grid, zeros implicit
        "WITH span AS (SELECT epoch_us(min(ts)) AS mn, "
        "epoch_us(max(ts)) AS mx FROM events WHERE ts IS NOT NULL), "
        "nw AS (SELECT (mx - mn) // 21600000000 + 1 AS n FROM span), "
        "o AS (SELECT user_id AS u, (epoch_us(ts) - span.mn) // "
        "21600000000 AS win FROM events, span WHERE ts IS NOT NULL "
        "AND user_id IS NOT NULL), "
        "wc AS (SELECT u, win, CAST(count(*) AS BIGINT) AS c FROM o "
        "GROUP BY 1, 2), "
        "agg AS (SELECT u, CAST(sum(c) AS BIGINT) AS s1, "
        "CAST(sum(c * c) AS BIGINT) AS s2 FROM wc GROUP BY 1) "
        "SELECT u AS user_id, s1 AS n_events, "
        "CAST(CAST((SELECT n FROM nw) AS HUGEINT) * s2 - "
        "CAST(s1 AS HUGEINT) * s1 AS DOUBLE) / "
        "CAST(CAST((SELECT n FROM nw) AS HUGEINT) * s1 AS DOUBLE) "
        "AS fano FROM agg WHERE s1 >= 20 "
        "ORDER BY fano DESC, u ASC LIMIT 50"
    )
    out["bot_regularity"] = (
        # per-user gap CV in whole seconds; sqrt of exact ints
        "WITH o AS (SELECT user_id AS u, epoch_us(ts) AS t FROM "
        "events WHERE ts IS NOT NULL AND user_id IS NOT NULL), "
        "g AS (SELECT u, (t - lag(t) OVER (PARTITION BY u ORDER BY "
        "t)) // 1000000 AS gap FROM o), "
        "agg AS (SELECT u, CAST(count(*) AS BIGINT) AS n, "
        "CAST(sum(gap) AS BIGINT) AS s1, "
        "CAST(sum(CAST(gap AS HUGEINT) * gap) AS BIGINT) AS s2 "
        "FROM g WHERE gap IS NOT NULL GROUP BY 1) "
        "SELECT u AS user_id, n AS n_gaps, "
        "sqrt(CAST(CAST(n AS HUGEINT) * s2 - CAST(s1 AS HUGEINT) * "
        "s1 AS DOUBLE)) / CAST(s1 AS DOUBLE) AS cv FROM agg "
        "WHERE n >= 20 AND s1 > 0 ORDER BY cv ASC, u ASC LIMIT 50"
    )
    out["q7_nation_flows"] = (
        # cross-nation 1996 trade flows, q5 cent-hundredth revenue
        "SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation, "
        "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) "
        "AS revenue_milli, CAST(count(*) AS BIGINT) AS n_items "
        "FROM lineitem, orders, supplier, customer, nation ns, "
        "nation nc WHERE l_orderkey = o_orderkey AND l_suppkey = "
        "s_suppkey AND o_custkey = c_custkey AND s_nationkey = "
        "ns.n_nationkey AND c_nationkey = nc.n_nationkey AND "
        "s_nationkey <> c_nationkey AND o_orderdate >= TIMESTAMP "
        "'1996-01-01' AND o_orderdate < TIMESTAMP '1997-01-01' "
        "GROUP BY 1, 2"
    )
    out["brand_returns"] = (
        # exact integer quantity sums per brand, one float ratio
        "SELECT p_brand, CAST(coalesce(sum(CAST(round(l_quantity) "
        "AS BIGINT)) FILTER (WHERE l_returnflag = 'R'), 0) "
        "AS BIGINT) AS qty_returned, "
        "CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS "
        "qty_total, "
        "CAST(coalesce(sum(CAST(round(l_quantity) AS BIGINT)) "
        "FILTER (WHERE l_returnflag = 'R'), 0) AS DOUBLE) / "
        "CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS DOUBLE) AS "
        "return_rate FROM lineitem JOIN part ON p_partkey = "
        "l_partkey GROUP BY 1 HAVING sum(CAST(round(l_quantity) AS "
        "BIGINT)) > 0"
    )
    out["wilson_ctr"] = (
        # Wilson lower bound; identical literal/op order both sides
        "WITH c AS (SELECT user_id AS u, "
        "CAST(count(*) FILTER (WHERE event_type = 'click') AS "
        "BIGINT) AS c, CAST(count(*) FILTER (WHERE event_type = "
        "'view') AS BIGINT) AS v FROM events WHERE user_id IS NOT "
        "NULL AND event_type IS NOT NULL GROUP BY 1), "
        "f AS (SELECT u, c, v, c + v AS n, "
        "CAST(c AS DOUBLE) / CAST(c + v AS DOUBLE) AS p, "
        "CAST(c + v AS DOUBLE) AS nf FROM c WHERE c + v >= 20) "
        "SELECT u AS user_id, c AS clicks, v AS views, p AS ctr, "
        "(p + 1.96 * 1.96 / (2.0 * nf) - 1.96 * "
        "sqrt((p * (1.0 - p) + 1.96 * 1.96 / (4.0 * nf)) / nf)) / "
        "(1.0 + 1.96 * 1.96 / nf) AS wilson_lb "
        "FROM f ORDER BY wilson_lb DESC, u ASC LIMIT 50"
    )
    out["target_encode"] = (
        # shrinkage toward the global cent mean, m = 50
        "WITH o AS (SELECT event_type AS cat, CAST(floor(value * "
        "100) AS BIGINT) AS v FROM events WHERE event_type IS NOT "
        "NULL AND value IS NOT NULL), "
        "s AS (SELECT cat, CAST(sum(v) AS BIGINT) AS sv, "
        "CAST(count(*) AS BIGINT) AS n FROM o GROUP BY 1), "
        "g AS (SELECT CAST(sum(sv) AS BIGINT) AS sg, "
        "CAST(sum(n) AS BIGINT) AS ng FROM s) "
        "SELECT cat AS category, n, sv AS sum_cents, "
        "(CAST(sv AS DOUBLE) + 50.0 * (CAST(g.sg AS DOUBLE) / "
        "CAST(g.ng AS DOUBLE))) / (CAST(n AS DOUBLE) + 50.0) AS "
        "enc_cents FROM s, g"
    )
    out["ttfp_cohorts"] = (
        # first purchase at/after first signup, weekly cohorts,
        # percentile_disc latency quantiles (cast DOUBLE to match
        # the engine's float columns)
        "WITH mn AS (SELECT epoch_us(min(ts)) AS m FROM events "
        "WHERE ts IS NOT NULL), "
        "s AS (SELECT user_id AS u, min(epoch_us(ts)) AS s FROM "
        "events WHERE event_type = 'signup' AND user_id IS NOT NULL "
        "AND ts IS NOT NULL GROUP BY 1), "
        "p AS (SELECT e.user_id AS u, min(epoch_us(e.ts)) AS p FROM "
        "events e JOIN s ON s.u = e.user_id WHERE e.event_type = "
        "'purchase' AND e.ts IS NOT NULL AND epoch_us(e.ts) >= s.s "
        "GROUP BY 1), "
        "d AS (SELECT (s.s - mn.m) // 604800000000 AS cohort_week, "
        "(p.p - s.s) // 86400000000 AS delta_days FROM s "
        "JOIN p USING (u), mn) "
        "SELECT cohort_week, CAST(percentile_disc(0.5) WITHIN GROUP "
        "(ORDER BY delta_days) AS DOUBLE) AS p50, "
        "CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY "
        "delta_days) AS DOUBLE) AS p90 FROM d GROUP BY 1"
    )
    out["rfm_segments"] = (
        # tercile edges via the cum-count percentile_disc rule;
        # bucket = edges strictly below the value
        "WITH mx AS (SELECT epoch_us(max(ts)) AS m FROM events "
        "WHERE ts IS NOT NULL), "
        "u AS (SELECT user_id AS uid, CAST((mx.m - "
        "max(epoch_us(ts))) // 86400000000 AS BIGINT) AS r, "
        "CAST(count(*) AS BIGINT) AS f, "
        "CAST(coalesce(sum(CAST(floor(value * 100) AS BIGINT)) "
        "FILTER (WHERE event_type = 'purchase' AND value IS NOT "
        "NULL), 0) AS BIGINT) AS mval FROM events, mx WHERE user_id "
        "IS NOT NULL AND ts IS NOT NULL GROUP BY user_id, mx.m), "
        "n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM u), "
        "idx AS (SELECT unnest(generate_series(1, 2)) AS i), "
        "rc AS (SELECT v, CAST(sum(c) OVER (ORDER BY v ROWS "
        "UNBOUNDED PRECEDING) AS BIGINT) AS cum FROM (SELECT r AS "
        "v, CAST(count(*) AS BIGINT) AS c FROM u GROUP BY 1)), "
        "red AS (SELECT i, min(v) AS edge FROM idx, rc, n WHERE "
        "rc.cum >= (i * n.n + 2) // 3 GROUP BY i), "
        "fc AS (SELECT v, CAST(sum(c) OVER (ORDER BY v ROWS "
        "UNBOUNDED PRECEDING) AS BIGINT) AS cum FROM (SELECT f AS "
        "v, CAST(count(*) AS BIGINT) AS c FROM u GROUP BY 1)), "
        "fed AS (SELECT i, min(v) AS edge FROM idx, fc, n WHERE "
        "fc.cum >= (i * n.n + 2) // 3 GROUP BY i), "
        "mc AS (SELECT v, CAST(sum(c) OVER (ORDER BY v ROWS "
        "UNBOUNDED PRECEDING) AS BIGINT) AS cum FROM (SELECT mval "
        "AS v, CAST(count(*) AS BIGINT) AS c FROM u GROUP BY 1)), "
        "med AS (SELECT i, min(v) AS edge FROM idx, mc, n WHERE "
        "mc.cum >= (i * n.n + 2) // 3 GROUP BY i), "
        "b AS (SELECT (SELECT count(*) FROM red WHERE edge < u.r) "
        "AS r_bucket, (SELECT count(*) FROM fed WHERE edge < u.f) "
        "AS f_bucket, (SELECT count(*) FROM med WHERE edge < "
        "u.mval) AS m_bucket FROM u) "
        "SELECT CAST(r_bucket AS BIGINT) AS r_bucket, "
        "CAST(f_bucket AS BIGINT) AS f_bucket, "
        "CAST(m_bucket AS BIGINT) AS m_bucket, "
        "CAST(count(*) AS BIGINT) AS n_users FROM b "
        "GROUP BY 1, 2, 3"
    )
    out["bounce_rate"] = (
        # gap-rule sessions; bounce = single-event session
        "WITH o AS (SELECT user_id AS u, epoch_us(ts) AS t FROM "
        "events WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
        "m AS (SELECT u, t, CASE WHEN lag(t) OVER (PARTITION BY u "
        "ORDER BY t) IS NULL OR t - lag(t) OVER (PARTITION BY u "
        "ORDER BY t) > 172800000000 THEN 1 ELSE 0 END AS is_new "
        "FROM o), "
        "s AS (SELECT u, sum(is_new) OVER (PARTITION BY u ORDER BY "
        "t ROWS UNBOUNDED PRECEDING) AS sid FROM m), "
        "c AS (SELECT u, sid, count(*) AS c FROM s GROUP BY 1, 2) "
        "SELECT CAST(count(*) AS BIGINT) AS n_sessions, "
        "CAST(count(*) FILTER (WHERE c = 1) AS BIGINT) AS "
        "n_bounced, CAST(count(*) FILTER (WHERE c = 1) AS DOUBLE) / "
        "CAST(count(*) AS DOUBLE) AS bounce_rate FROM c"
    )
    out["revenue_top1pct"] = (
        # percentile_disc 0.99 threshold over per-customer cents;
        # ties at the threshold included
        "WITH u AS (SELECT o_custkey AS k, CAST(sum(CAST(round("
        "o_totalprice * 100) AS BIGINT)) AS BIGINT) AS rev FROM "
        "orders WHERE o_custkey IS NOT NULL AND o_totalprice IS NOT "
        "NULL GROUP BY 1), "
        "t AS (SELECT percentile_disc(0.99) WITHIN GROUP (ORDER BY "
        "rev) AS thr FROM u) "
        "SELECT CAST(count(*) AS BIGINT) AS n_customers, "
        "CAST(count(*) FILTER (WHERE rev >= t.thr) AS BIGINT) AS "
        "n_top, CAST(t.thr AS BIGINT) AS thr_cents, "
        "CAST(sum(rev) FILTER (WHERE rev >= t.thr) AS BIGINT) AS "
        "top_cents, CAST(sum(rev) AS BIGINT) AS total_cents, "
        "CAST(sum(rev) FILTER (WHERE rev >= t.thr) AS DOUBLE) / "
        "CAST(sum(rev) AS DOUBLE) AS share FROM u, t GROUP BY t.thr"
    )
    out["js_value_drift"] = (
        # symmetric micro-nat JS over integer-cent histograms;
        # rational ratio 2aB/(aB+bA) inside each ln
        "WITH span AS (SELECT (epoch_us(min(ts)) + "
        "epoch_us(max(ts))) // 2 AS mid FROM events), "
        "c AS (SELECT (epoch_us(ts) >= span.mid) AS cur, "
        "CAST(floor(value * 100) AS BIGINT) AS v FROM events, span "
        "WHERE ts IS NOT NULL AND value IS NOT NULL), "
        "h AS (SELECT cur, v, CAST(count(*) AS BIGINT) AS n FROM c "
        "GROUP BY 1, 2), "
        "w AS (SELECT coalesce(a.v, b.v) AS v, "
        "CAST(coalesce(a.n, 0) AS BIGINT) AS a, "
        "CAST(coalesce(b.n, 0) AS BIGINT) AS b FROM "
        "(SELECT v, n FROM h WHERE NOT cur) a FULL JOIN "
        "(SELECT v, n FROM h WHERE cur) b USING (v)), "
        "tot AS (SELECT CAST(sum(a) AS BIGINT) AS ta, "
        "CAST(sum(b) AS BIGINT) AS tb FROM w), "
        "q AS (SELECT "
        "CAST(coalesce(sum(CASE WHEN a > 0 THEN a * CAST(floor(("
        "ln(CAST(2 * CAST(a AS HUGEINT) * tb AS DOUBLE)) - "
        "ln(CAST(CAST(a AS HUGEINT) * tb + CAST(b AS HUGEINT) * ta "
        "AS DOUBLE))) * 1000000.0) AS BIGINT) END), 0) AS BIGINT) "
        "AS qa, "
        "CAST(coalesce(sum(CASE WHEN b > 0 THEN b * CAST(floor(("
        "ln(CAST(2 * CAST(b AS HUGEINT) * ta AS DOUBLE)) - "
        "ln(CAST(CAST(b AS HUGEINT) * ta + CAST(a AS HUGEINT) * tb "
        "AS DOUBLE))) * 1000000.0) AS BIGINT) END), 0) AS BIGINT) "
        "AS qb FROM w, tot) "
        "SELECT tot.ta AS n_ref, tot.tb AS n_cur, q.qa AS js_q_ref, "
        "q.qb AS js_q_cur, "
        "0.5 * (CAST(q.qa AS DOUBLE) / CAST(1000000 * tot.ta AS "
        "DOUBLE)) + 0.5 * (CAST(q.qb AS DOUBLE) / CAST(1000000 * "
        "tot.tb AS DOUBLE)) AS js_nats FROM q, tot"
    )
    out["ttr_by_source"] = (
        # distinct types / occurrences per source, one float ratio
        "WITH toks AS (SELECT coalesce(source, '') AS source, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok "
        "FROM documents), "
        "agg AS (SELECT source, CAST(count(*) AS BIGINT) AS "
        "n_tokens, CAST(count(DISTINCT tok) AS BIGINT) AS n_types "
        "FROM toks GROUP BY 1) "
        "SELECT source, n_tokens, n_types, CAST(n_types AS DOUBLE) "
        "/ CAST(n_tokens AS DOUBLE) AS ttr FROM agg"
    )
    out["ri_audit"] = (
        # NOT EXISTS orphan counts per relationship
        "SELECT * FROM ("
        "SELECT 'lineitem.l_orderkey->orders' AS relationship, "
        "CAST(count(*) AS BIGINT) AS n_child_rows, "
        "CAST(count(*) FILTER (WHERE NOT EXISTS (SELECT 1 FROM "
        "orders WHERE o_orderkey = l_orderkey) AND l_orderkey IS "
        "NOT NULL) AS BIGINT) AS n_orphans FROM lineitem "
        "UNION ALL SELECT 'lineitem.l_partkey->part', "
        "CAST(count(*) AS BIGINT), CAST(count(*) FILTER (WHERE NOT "
        "EXISTS (SELECT 1 FROM part WHERE p_partkey = l_partkey) "
        "AND l_partkey IS NOT NULL) AS BIGINT) FROM lineitem "
        "UNION ALL SELECT 'lineitem.l_suppkey->supplier', "
        "CAST(count(*) AS BIGINT), CAST(count(*) FILTER (WHERE NOT "
        "EXISTS (SELECT 1 FROM supplier WHERE s_suppkey = "
        "l_suppkey) AND l_suppkey IS NOT NULL) AS BIGINT) "
        "FROM lineitem "
        "UNION ALL SELECT 'orders.o_custkey->customer', "
        "CAST(count(*) AS BIGINT), CAST(count(*) FILTER (WHERE NOT "
        "EXISTS (SELECT 1 FROM customer WHERE c_custkey = "
        "o_custkey) AND o_custkey IS NOT NULL) AS BIGINT) "
        "FROM orders)"
    )
    out["session_durations"] = (
        # gap-rule sessions; percentile_disc over whole-second
        # durations, cast DOUBLE to match the engine's float output
        "WITH o AS (SELECT user_id AS u, epoch_us(ts) AS t FROM "
        "events WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
        "m AS (SELECT u, t, CASE WHEN lag(t) OVER (PARTITION BY u "
        "ORDER BY t) IS NULL OR t - lag(t) OVER (PARTITION BY u "
        "ORDER BY t) > 172800000000 THEN 1 ELSE 0 END AS is_new "
        "FROM o), "
        "s AS (SELECT u, t, sum(is_new) OVER (PARTITION BY u ORDER "
        "BY t ROWS UNBOUNDED PRECEDING) AS sid FROM m), "
        "d AS (SELECT (max(t) - min(t)) // 1000000 AS dur FROM s "
        "GROUP BY u, sid) "
        "SELECT CAST(count(*) AS BIGINT) AS n_sessions, "
        "CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY dur) AS "
        "DOUBLE) AS p50_secs, CAST(percentile_disc(0.95) WITHIN "
        "GROUP (ORDER BY dur) AS DOUBLE) AS p95_secs FROM d"
    )
    out["chapman_users"] = (
        # (n1+1)(n2+1)/(m+1) - 1; exact integer flags per user
        "WITH span AS (SELECT (epoch_us(min(ts)) + "
        "epoch_us(max(ts))) // 2 AS mid FROM events WHERE ts IS "
        "NOT NULL), "
        "u AS (SELECT user_id AS u, max(CASE WHEN epoch_us(ts) < "
        "span.mid THEN 1 ELSE 0 END) AS a, max(CASE WHEN "
        "epoch_us(ts) >= span.mid THEN 1 ELSE 0 END) AS b FROM "
        "events, span WHERE user_id IS NOT NULL AND ts IS NOT NULL "
        "GROUP BY 1) "
        "SELECT CAST(sum(a) AS BIGINT) AS n_first, "
        "CAST(sum(b) AS BIGINT) AS n_second, "
        "CAST(sum(a * b) AS BIGINT) AS n_both, "
        "CAST((sum(a) + 1) * (sum(b) + 1) AS DOUBLE) / "
        "CAST(sum(a * b) + 1 AS DOUBLE) - 1.0 AS chapman_n FROM u"
    )
    out["dow_hour_heatmap"] = (
        # pure epoch arithmetic: dow = (days + 4) % 7, Sunday = 0
        "SELECT ((epoch_us(ts) // 86400000000 + 4) % 7) AS dow, "
        "(epoch_us(ts) % 86400000000) // 3600000000 AS hour, "
        "CAST(count(*) AS BIGINT) AS n FROM events WHERE ts IS NOT "
        "NULL GROUP BY 1, 2"
    )
    out["brand_reorder"] = (
        # (customer, part) pairs with >= 2 distinct orders, by brand
        "WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM "
        "lineitem), "
        "cp AS (SELECT o_custkey AS c, l_partkey AS p, "
        "CAST(count(*) AS BIGINT) AS n FROM op JOIN orders ON "
        "o_orderkey = l_orderkey GROUP BY 1, 2), "
        "j AS (SELECT p_brand, CAST(count(*) AS BIGINT) AS n_pairs, "
        "CAST(coalesce(count(*) FILTER (WHERE n >= 2), 0) AS "
        "BIGINT) AS n_repeat FROM cp JOIN part ON p_partkey = p "
        "GROUP BY 1) "
        "SELECT p_brand, n_pairs, n_repeat, CAST(n_repeat AS "
        "DOUBLE) / CAST(n_pairs AS DOUBLE) AS reorder_rate FROM j"
    )
    out["order_size_hist"] = (
        "SELECT n_items, CAST(count(*) AS BIGINT) AS n_orders FROM "
        "(SELECT l_orderkey, CAST(count(*) AS BIGINT) AS n_items "
        "FROM lineitem WHERE l_orderkey IS NOT NULL GROUP BY 1) "
        "GROUP BY 1"
    )
    out["profile_events"] = (
        "SELECT 'event_id' AS col_name, CAST(count(*) AS BIGINT) AS "
        "n_rows, CAST(count(*) - count(event_id) AS BIGINT) AS "
        "n_nulls, CAST(count(DISTINCT event_id) AS BIGINT) AS "
        "n_distinct FROM events "
        "UNION ALL SELECT 'ts', CAST(count(*) AS BIGINT), "
        "CAST(count(*) - count(ts) AS BIGINT), "
        "CAST(count(DISTINCT ts) AS BIGINT) FROM events "
        "UNION ALL SELECT 'user_id', CAST(count(*) AS BIGINT), "
        "CAST(count(*) - count(user_id) AS BIGINT), "
        "CAST(count(DISTINCT user_id) AS BIGINT) FROM events "
        "UNION ALL SELECT 'event_type', CAST(count(*) AS BIGINT), "
        "CAST(count(*) - count(event_type) AS BIGINT), "
        "CAST(count(DISTINCT event_type) AS BIGINT) FROM events "
        "UNION ALL SELECT 'value', CAST(count(*) AS BIGINT), "
        "CAST(count(*) - count(value) AS BIGINT), "
        "CAST(count(DISTINCT value) AS BIGINT) FROM events "
        "UNION ALL SELECT 'props', CAST(count(*) AS BIGINT), "
        "CAST(count(*) - count(props) AS BIGINT), "
        "CAST(count(DISTINCT props) AS BIGINT) FROM events"
    )
    out["brand_growth_share"] = (
        # per-brand revenue by order-date half; share + growth
        "WITH span AS (SELECT (epoch_us(min(o_orderdate)) + "
        "epoch_us(max(o_orderdate))) // 2 AS mid FROM orders), "
        "r AS (SELECT p_brand, (epoch_us(o_orderdate) >= span.mid) "
        "AS cur, CAST(sum(CAST(round(l_extendedprice * 100) AS "
        "BIGINT) * (100 - CAST(round(l_discount * 100) AS BIGINT))) "
        "AS BIGINT) AS rev FROM lineitem, orders, part, span WHERE "
        "l_orderkey = o_orderkey AND p_partkey = l_partkey "
        "GROUP BY 1, 2), "
        "g AS (SELECT p_brand, CAST(coalesce(sum(rev) FILTER "
        "(WHERE NOT cur), 0) AS BIGINT) AS r1, "
        "CAST(coalesce(sum(rev) FILTER (WHERE cur), 0) AS BIGINT) "
        "AS r2 FROM r GROUP BY 1), "
        "tot AS (SELECT CAST(sum(r1 + r2) AS BIGINT) AS t FROM g) "
        "SELECT p_brand, r1 AS rev_first, r2 AS rev_second, "
        "CAST(r1 + r2 AS DOUBLE) / CAST(tot.t AS DOUBLE) AS share, "
        "CASE WHEN r1 > 0 THEN CAST(r2 AS DOUBLE) / "
        "CAST(r1 AS DOUBLE) END AS growth FROM g, tot"
    )
    out["tool_rules"] = (
        # tool co-occurrence rules within conversations; ground-truth
        # expected_tool, pair order = sorted tool order on both sides
        "WITH m AS (SELECT CAST(substr(conv_id, 5) AS BIGINT) AS g, "
        f"expected_tool AS tool FROM read_parquet('{_SF001_GLOB}') "
        "WHERE expected_tool IS NOT NULL AND expected_tool <> ''), "
        "li AS (SELECT DISTINCT g, tool FROM m), "
        "n AS (SELECT CAST(count(DISTINCT g) AS BIGINT) AS ng "
        "FROM li), "
        "ic AS (SELECT tool, CAST(count(*) AS BIGINT) AS c FROM li "
        "GROUP BY 1), "
        "pcnt AS (SELECT x.tool AS a, y.tool AS b, CAST(count(*) "
        "AS BIGINT) AS cab FROM li x JOIN li y ON x.g = y.g AND "
        "x.tool < y.tool GROUP BY 1, 2), "
        "f AS (SELECT a, b, cab, ca.c AS ca, cb.c AS cb FROM pcnt "
        "JOIN ic ca ON ca.tool = a JOIN ic cb ON cb.tool = b "
        "WHERE cab >= 2) "
        "SELECT a AS tool_a, b AS tool_b, cab AS support, "
        "CAST(cab AS DOUBLE) / CAST(ca AS DOUBLE) AS conf_ab, "
        "CAST(cab AS DOUBLE) / CAST(cb AS DOUBLE) AS conf_ba, "
        "CAST(CAST(ng AS HUGEINT) * cab AS DOUBLE) / "
        "CAST(CAST(ca AS HUGEINT) * cb AS DOUBLE) AS lift "
        "FROM f, n ORDER BY lift DESC, a, b LIMIT 30"
    )
    out["tool_transitions"] = (
        # lead() over each conversation's non-empty tool sequence
        "WITH o AS (SELECT conv_id, turn_idx, expected_tool AS "
        f"tool FROM read_parquet('{_SF001_GLOB}') WHERE "
        "expected_tool IS NOT NULL AND expected_tool <> ''), "
        "p AS (SELECT tool AS f, lead(tool) OVER (PARTITION BY "
        "conv_id ORDER BY turn_idx) AS nxt FROM o) "
        "SELECT f AS from_state, nxt AS to_state, CAST(count(*) AS "
        "BIGINT) AS n FROM p WHERE nxt IS NOT NULL GROUP BY 1, 2"
    )
    out["segment_cadence"] = (
        # LAG gaps per customer joined to the segment dimension
        "WITH o AS (SELECT o_custkey AS c, epoch_us(o_orderdate) "
        "AS t FROM orders WHERE o_custkey IS NOT NULL AND "
        "o_orderdate IS NOT NULL), "
        "g AS (SELECT c, (t - lag(t) OVER (PARTITION BY c ORDER BY "
        "t)) // 86400000000 AS gap FROM o), "
        "j AS (SELECT c_mktsegment AS seg, gap FROM g JOIN customer "
        "ON c_custkey = c WHERE gap IS NOT NULL) "
        "SELECT seg AS c_mktsegment, CAST(count(*) AS BIGINT) AS "
        "n_gaps, CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY "
        "gap) AS DOUBLE) AS p50_days FROM j GROUP BY 1"
    )
    out["discount_curve"] = (
        "SELECT CAST(round(l_discount * 100) AS BIGINT) AS "
        "disc_pct, CAST(count(*) AS BIGINT) AS n_items, "
        "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT))) AS "
        "BIGINT) AS revenue_milli FROM lineitem WHERE l_discount "
        "IS NOT NULL AND l_extendedprice IS NOT NULL GROUP BY 1"
    )
    out["part_type_pricing"] = (
        # catalog stats per type + fact revenue via the same join
        "WITH cat AS (SELECT p_type, CAST(count(*) AS BIGINT) AS "
        "n_parts, CAST(sum(CAST(round(p_retailprice * 100) AS "
        "BIGINT)) AS BIGINT) AS sr FROM part GROUP BY 1), "
        "fact AS (SELECT p_type, CAST(coalesce(sum(CAST(round("
        "l_quantity) AS BIGINT)), 0) AS BIGINT) AS qty_sold, "
        "CAST(coalesce(sum(CAST(round(l_extendedprice * 100) AS "
        "BIGINT) * (100 - CAST(round(l_discount * 100) AS "
        "BIGINT))), 0) AS BIGINT) AS revenue_milli FROM part JOIN "
        "lineitem ON l_partkey = p_partkey GROUP BY 1) "
        "SELECT cat.p_type, cat.n_parts, CAST(cat.sr AS DOUBLE) / "
        "CAST(cat.n_parts AS DOUBLE) AS avg_retail_cents, "
        "coalesce(fact.qty_sold, 0) AS qty_sold, "
        "coalesce(fact.revenue_milli, 0) AS revenue_milli "
        "FROM cat LEFT JOIN fact USING (p_type)"
    )
    out["region_balances"] = (
        "SELECT r_name, CAST(count(*) AS BIGINT) AS n_customers, "
        "CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS "
        "BIGINT) AS sum_balance_cents, "
        "CAST(count(*) FILTER (WHERE round(c_acctbal * 100) < 0) "
        "AS BIGINT) AS n_negative, "
        "CAST(count(*) FILTER (WHERE round(c_acctbal * 100) < 0) "
        "AS DOUBLE) / CAST(count(*) AS DOUBLE) AS neg_share "
        "FROM customer JOIN nation ON n_nationkey = c_nationkey "
        "JOIN region ON r_regionkey = n_regionkey "
        "WHERE c_acctbal IS NOT NULL GROUP BY 1"
    )
    out["supplier_hhi"] = (
        # HHI = sum(q_s^2)/Q^2; HUGEINT squares, one float division
        "WITH s AS (SELECT p_type, l_suppkey, CAST(sum(CAST(round("
        "l_quantity) AS BIGINT)) AS BIGINT) AS q FROM lineitem "
        "JOIN part ON p_partkey = l_partkey GROUP BY 1, 2), "
        "t AS (SELECT p_type, CAST(count(*) AS BIGINT) AS "
        "n_suppliers, CAST(sum(q) AS BIGINT) AS qt, "
        "CAST(sum(CAST(q AS HUGEINT) * q) AS BIGINT) AS sq FROM s "
        "GROUP BY 1) "
        "SELECT p_type, n_suppliers, qt AS qty_total, "
        "CASE WHEN qt > 0 THEN CAST(sq AS DOUBLE) / "
        "(CAST(qt AS DOUBLE) * CAST(qt AS DOUBLE)) END AS hhi "
        "FROM t"
    )
    out["segment_priority_mix"] = (
        "SELECT c_mktsegment, o_orderpriority, CAST(count(*) AS "
        "BIGINT) AS n FROM orders JOIN customer ON c_custkey = "
        "o_custkey WHERE o_orderpriority IS NOT NULL GROUP BY 1, 2"
    )
    out["tools_per_conv"] = (
        "WITH c AS (SELECT conv_id, CAST(count(*) AS BIGINT) AS "
        "n_turns, CAST(count(DISTINCT CASE WHEN expected_tool <> "
        "'' THEN expected_tool END) AS BIGINT) AS n_tools FROM "
        f"read_parquet('{_SF001_GLOB}') GROUP BY 1) "
        "SELECT n_tools, CAST(count(*) AS BIGINT) AS n_convs, "
        "CAST(sum(n_turns) AS BIGINT) AS sum_turns FROM c "
        "GROUP BY 1"
    )
    out["role_runs"] = (
        # gaps-and-islands over dense per-conv turn indices
        "WITH r AS (SELECT conv_id, expected_role AS role, "
        "turn_idx - row_number() OVER (PARTITION BY conv_id, "
        "expected_role ORDER BY turn_idx) AS isl FROM "
        f"read_parquet('{_SF001_GLOB}')), "
        "runs AS (SELECT role, CAST(count(*) AS BIGINT) AS run_len "
        "FROM r GROUP BY conv_id, role, isl) "
        "SELECT role, run_len, CAST(count(*) AS BIGINT) AS n_runs "
        "FROM runs GROUP BY 1, 2"
    )
    out["top_commands"] = (
        "SELECT expected_command AS command, CAST(count(*) AS "
        f"BIGINT) AS n FROM read_parquet('{_SF001_GLOB}') WHERE "
        "expected_command IS NOT NULL AND expected_command <> '' "
        "GROUP BY 1 ORDER BY n DESC, command ASC LIMIT 20"
    )
    out["vim_share"] = (
        "WITH c AS (SELECT conv_id, CAST(count(*) AS BIGINT) AS n, "
        "CAST(sum(CASE WHEN expected_in_vim THEN 1 ELSE 0 END) AS "
        f"BIGINT) AS nv FROM read_parquet('{_SF001_GLOB}') "
        "GROUP BY 1) "
        "SELECT (10 * nv) // n AS decile, CAST(count(*) AS BIGINT) "
        "AS n_convs FROM c GROUP BY 1"
    )
    out["turnlen_by_role"] = (
        "SELECT expected_role AS role, CAST(percentile_disc(0.5) "
        "WITHIN GROUP (ORDER BY length(coalesce("
        "expected_clean_text, ''))) AS DOUBLE) AS p50, "
        "CAST(percentile_disc(0.95) WITHIN GROUP (ORDER BY "
        "length(coalesce(expected_clean_text, ''))) AS DOUBLE) AS "
        f"p95 FROM read_parquet('{_SF001_GLOB}') GROUP BY 1"
    )
    out["priority_trend"] = (
        "WITH span AS (SELECT epoch_us(min(o_orderdate)) AS mn "
        "FROM orders WHERE o_orderdate IS NOT NULL) "
        "SELECT o_orderpriority, (epoch_us(o_orderdate) - span.mn) "
        "// 7862400000000 AS qbucket, CAST(count(*) AS BIGINT) AS "
        "n FROM orders, span WHERE o_orderpriority IS NOT NULL AND "
        "o_orderdate IS NOT NULL GROUP BY 1, 2"
    )
    out["ship_delay_hist"] = (
        "SELECT (epoch_us(l_shipdate) - epoch_us(o_orderdate)) // "
        "86400000000 AS delay_days, CAST(count(*) AS BIGINT) AS "
        "n_items FROM lineitem JOIN orders ON o_orderkey = "
        "l_orderkey WHERE l_shipdate IS NOT NULL AND o_orderdate "
        "IS NOT NULL GROUP BY 1"
    )
    out["peak_3h_rate"] = (
        # max over all 3-hour windows; zero-start candidates suffice
        # because an empty window can never beat an occupied one
        "WITH span AS (SELECT epoch_us(min(ts)) AS mn FROM events "
        "WHERE ts IS NOT NULL), "
        "o AS (SELECT event_type AS k, (epoch_us(ts) - span.mn) // "
        "3600000000 AS h FROM events, span WHERE ts IS NOT NULL "
        "AND event_type IS NOT NULL), "
        "hc AS (SELECT k, h, CAST(count(*) AS BIGINT) AS c FROM o "
        "GROUP BY 1, 2), "
        "cand AS (SELECT DISTINCT k, s FROM (SELECT k, h - 2 AS s "
        "FROM hc UNION ALL SELECT k, h - 1 FROM hc UNION ALL "
        "SELECT k, h FROM hc) WHERE s >= 0), "
        "w AS (SELECT cand.k, cand.s, coalesce(a.c, 0) + "
        "coalesce(b.c, 0) + coalesce(d.c, 0) AS tot FROM cand "
        "LEFT JOIN hc a ON a.k = cand.k AND a.h = cand.s "
        "LEFT JOIN hc b ON b.k = cand.k AND b.h = cand.s + 1 "
        "LEFT JOIN hc d ON d.k = cand.k AND d.h = cand.s + 2), "
        "r AS (SELECT *, row_number() OVER (PARTITION BY k ORDER "
        "BY tot DESC, s ASC) AS rn FROM w) "
        "SELECT k AS event_type, CAST(s AS BIGINT) AS "
        "window_start_hour, CAST(tot AS BIGINT) AS peak_3h_events "
        "FROM r WHERE rn = 1"
    )
    out["fast_orders"] = (
        "WITH d AS (SELECT l_orderkey AS o, o_orderpriority AS "
        "prio, max((epoch_us(l_shipdate) - epoch_us(o_orderdate)) "
        "// 86400000000) AS md FROM lineitem JOIN orders ON "
        "o_orderkey = l_orderkey WHERE l_shipdate IS NOT NULL AND "
        "o_orderdate IS NOT NULL GROUP BY 1, 2) "
        "SELECT prio AS o_orderpriority, CAST(count(*) AS BIGINT) "
        "AS n_orders, CAST(coalesce(sum(CASE WHEN md <= 30 THEN 1 "
        "END), 0) AS BIGINT) AS n_fast, "
        "CAST(coalesce(sum(CASE WHEN md <= 30 THEN 1 END), 0) AS "
        "DOUBLE) / CAST(count(*) AS DOUBLE) AS fast_share FROM d "
        "GROUP BY 1"
    )
    out["peak_revenue_day"] = (
        "WITH d AS (SELECT epoch_us(l_shipdate) // 86400000000 AS "
        "day, CAST(sum(CAST(round(l_extendedprice * 100) AS "
        "BIGINT) * (100 - CAST(round(l_discount * 100) AS "
        "BIGINT))) AS BIGINT) AS rev FROM lineitem WHERE "
        "l_shipdate IS NOT NULL AND l_extendedprice IS NOT NULL "
        "AND l_discount IS NOT NULL GROUP BY 1) "
        "SELECT CAST(day AS BIGINT) AS epoch_day, rev AS "
        "revenue_milli FROM d ORDER BY rev DESC, day ASC LIMIT 1"
    )
    out["dup_rate_by_source"] = (
        "WITH t AS (SELECT coalesce(source, '') AS source, "
        "coalesce(text, '') AS text FROM documents), "
        "c AS (SELECT source, text, count(*) OVER (PARTITION BY "
        "text) AS cnt FROM t) "
        "SELECT source, CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(coalesce(sum(CASE WHEN cnt >= 2 THEN 1 END), 0) AS "
        "BIGINT) AS n_dup_docs, "
        "CAST(coalesce(sum(CASE WHEN cnt >= 2 THEN 1 END), 0) AS "
        "DOUBLE) / CAST(count(*) AS DOUBLE) AS dup_share FROM c "
        "GROUP BY 1"
    )
    out["nonascii_by_source"] = (
        "WITH t AS (SELECT coalesce(source, '') AS source, "
        "coalesce(text, '') AS text FROM documents) "
        "SELECT source, CAST(sum(length(text)) AS BIGINT) AS "
        "n_chars, CAST(sum(length(regexp_replace(text, "
        "'[\\x00-\\x7F]', '', 'g'))) AS BIGINT) AS n_nonascii, "
        "CASE WHEN sum(length(text)) > 0 THEN "
        "CAST(sum(length(regexp_replace(text, '[\\x00-\\x7F]', "
        "'', 'g'))) AS DOUBLE) / CAST(sum(length(text)) AS DOUBLE) "
        "END AS nonascii_share FROM t GROUP BY 1"
    )
    out["sentences_by_lang"] = (
        # the flesch counting conventions rolled up per lang
        "WITH t AS (SELECT coalesce(lang, '') AS lang, "
        "coalesce(text, '') AS text FROM documents), "
        "c AS (SELECT lang, CAST(len(regexp_extract_all(text, "
        "'\\S+')) AS BIGINT) AS w, CAST(greatest(len("
        "regexp_extract_all(text, '[.!?]+')), 1) AS BIGINT) AS s "
        "FROM t) "
        "SELECT lang, CAST(sum(w) AS BIGINT) AS n_words, "
        "CAST(sum(s) AS BIGINT) AS n_sentences, "
        "CAST(sum(w) AS DOUBLE) / CAST(sum(s) AS DOUBLE) AS "
        "words_per_sentence FROM c GROUP BY 1"
    )
    out["q4_priority"] = (
        # EXISTS semi over the 60-day-late predicate, per priority
        "SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS "
        "order_count FROM orders WHERE o_orderdate >= TIMESTAMP "
        "'1995-07-01' AND o_orderdate < TIMESTAMP '1995-10-01' AND "
        "EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = "
        "o_orderkey AND epoch_us(l_shipdate) > "
        "epoch_us(o_orderdate) + 5184000000000) GROUP BY 1"
    )
    # generated from the same parameters as the Ray calls, so the
    # engine and its mirrors can never drift
    from console_log_parser_ray.stages.similarity import (
        kcenter_oracle_sql,
        mmr_oracle_sql,
    )

    out["mmr_diverse"] = mmr_oracle_sql(query_id=0, k=10)
    out["kcenter_coreset"] = kcenter_oracle_sql(k=8)
    out["class_balance_weights"] = (
        # effective-number-of-samples weights; libm pow both sides
        "WITH c AS (SELECT lang, CAST(count(*) AS BIGINT) AS n_docs "
        "FROM documents GROUP BY 1), "
        "e AS (SELECT lang, n_docs, (1.0 - power(0.999, "
        "CAST(n_docs AS DOUBLE))) / (1.0 - 0.999) AS ens FROM c) "
        "SELECT lang, n_docs, ens, 1.0 / ens AS weight FROM e"
    )
    # generated from the same term list as the Ray query, so the
    # engine and its mirror can never drift
    from console_log_parser_ray.stages.search import bm25_oracle_sql

    out["bm25"] = bm25_oracle_sql(_BM25_TERMS)
    out["turn_gap_by_role"] = (
        # lag gap in whole seconds, role of the LATER turn;
        # percentile_disc over the (role, gap) distribution
        "WITH o AS (SELECT conv_id, expected_role AS role, "
        "epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY "
        "conv_id ORDER BY turn_idx) AS d FROM "
        f"read_parquet('{_SF001_GLOB}')), "
        "g AS (SELECT role, d // 1000000 AS gap FROM o WHERE d IS "
        "NOT NULL) "
        "SELECT role, CAST(percentile_disc(0.5) WITHIN GROUP "
        "(ORDER BY gap) AS DOUBLE) AS p50, "
        "CAST(percentile_disc(0.95) WITHIN GROUP (ORDER BY gap) "
        "AS DOUBLE) AS p95 FROM g GROUP BY 1"
    )
    out["conv_duration_hist"] = (
        "WITH c AS (SELECT conv_id, (max(epoch_us(ts)) - "
        "min(epoch_us(ts))) // 60000000 AS dur_min FROM "
        f"read_parquet('{_SF001_GLOB}') GROUP BY 1) "
        "SELECT dur_min, CAST(count(*) AS BIGINT) AS n_convs "
        "FROM c GROUP BY 1"
    )
    out["hapax_by_source"] = (
        # per-source types occurring exactly once; same \S+ token law
        # as ttr_by_source
        "WITH toks AS (SELECT coalesce(source, '') AS source, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok "
        "FROM documents), "
        "c AS (SELECT source, tok, CAST(count(*) AS BIGINT) AS n "
        "FROM toks GROUP BY 1, 2) "
        "SELECT source, CAST(count(*) AS BIGINT) AS n_types, "
        "CAST(count(*) FILTER (WHERE n = 1) AS BIGINT) AS n_hapax, "
        "CAST(count(*) FILTER (WHERE n = 1) AS DOUBLE) / "
        "CAST(count(*) AS BIGINT) AS hapax_ratio FROM c GROUP BY 1"
    )
    out["zipf_slope"] = (
        # top-1000 token frequencies, micro-nat-quantized lns,
        # HUGEINT normal equations -- same tree as the engine
        "WITH toks AS (SELECT unnest(regexp_extract_all(text, "
        "'\\S+')) AS tok FROM documents), "
        "c AS (SELECT tok, CAST(count(*) AS BIGINT) AS n FROM toks "
        "GROUP BY 1), "
        "r AS (SELECT n, row_number() OVER (ORDER BY n DESC, tok "
        "ASC) AS rnk FROM c QUALIFY rnk <= 1000), "
        "q AS (SELECT CAST(floor(ln(CAST(rnk AS DOUBLE)) * "
        "1000000.0) AS BIGINT) AS x, CAST(floor(ln(CAST(n AS "
        "DOUBLE)) * 1000000.0) AS BIGINT) AS y FROM r), "
        "s AS (SELECT CAST(count(*) AS BIGINT) AS n, CAST(sum(x) "
        "AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy, "
        "CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy, "
        "CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx, "
        "CAST(sum(CAST(y AS HUGEINT) * y) AS HUGEINT) AS syy "
        "FROM q), "
        "f AS (SELECT n, sx, sy, "
        "CAST(n AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * sy AS "
        "num, CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx "
        "AS denx, CAST(n AS HUGEINT) * syy - CAST(sy AS HUGEINT) * "
        "sy AS deny FROM s) "
        "SELECT n AS n_ranks, "
        "CASE WHEN denx > 0 THEN CAST(num AS DOUBLE) / "
        "CAST(denx AS DOUBLE) END AS slope, "
        "CASE WHEN denx > 0 THEN (CAST(sy AS DOUBLE) - "
        "CAST(num AS DOUBLE) / CAST(denx AS DOUBLE) * "
        "CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE) END AS "
        "intercept_micro_nats, "
        "CASE WHEN denx > 0 AND deny > 0 THEN CAST(num AS DOUBLE) "
        "* CAST(num AS DOUBLE) / (CAST(denx AS DOUBLE) * "
        "CAST(deny AS DOUBLE)) END AS r2 FROM f"
    )
    out["brand_supplier_breadth"] = (
        "SELECT p_brand, CAST(count(DISTINCT l_partkey) AS BIGINT) "
        "AS n_parts, CAST(count(DISTINCT l_suppkey) AS BIGINT) AS "
        "n_suppliers FROM lineitem JOIN part ON p_partkey = "
        "l_partkey GROUP BY 1"
    )
    out["blamed_suppliers"] = (
        # q21-shaped on this schema's 60-day lateness rule
        "WITH ls AS (SELECT l_orderkey AS o, l_suppkey AS s, "
        "max(CASE WHEN epoch_us(l_shipdate) > "
        "epoch_us(o_orderdate) + 5184000000000 THEN 1 ELSE 0 END) "
        "AS late FROM lineitem JOIN orders ON o_orderkey = "
        "l_orderkey GROUP BY 1, 2), "
        "og AS (SELECT o, CAST(count(*) AS BIGINT) AS n_supp, "
        "CAST(sum(late) AS BIGINT) AS n_late FROM ls GROUP BY 1), "
        "blame AS (SELECT ls.s FROM ls JOIN og USING (o) WHERE "
        "og.n_supp >= 2 AND og.n_late = 1 AND ls.late = 1) "
        "SELECT s_name, CAST(count(*) AS BIGINT) AS numwait FROM "
        "blame JOIN supplier ON s_suppkey = s GROUP BY 1 "
        "ORDER BY numwait DESC, s_name ASC LIMIT 20"
    )
    out["role_pattern_topk"] = (
        "WITH p AS (SELECT conv_id, string_agg("
        "substr(expected_role, 1, 1), '' ORDER BY turn_idx) AS pat "
        f"FROM read_parquet('{_SF001_GLOB}') WHERE turn_idx < 12 "
        "GROUP BY 1) "
        "SELECT pat, CAST(count(*) AS BIGINT) AS n_convs FROM p "
        "GROUP BY 1 ORDER BY n_convs DESC, pat ASC LIMIT 10"
    )
    out["wau_weekly"] = (
        "WITH span AS (SELECT epoch_us(min(ts)) AS mn FROM events "
        "WHERE ts IS NOT NULL), "
        "o AS (SELECT (epoch_us(ts) - span.mn) // 604800000000 AS "
        "week, user_id FROM events, span WHERE ts IS NOT NULL AND "
        "user_id IS NOT NULL) "
        "SELECT week, CAST(count(DISTINCT user_id) AS BIGINT) AS "
        "n_users FROM o GROUP BY 1"
    )
    out["lang_confusion"] = (
        "WITH pred AS (" + _lang_pred_sql() + ") "
        "SELECT d.lang, p.lang_pred, CAST(count(*) AS BIGINT) AS n "
        "FROM pred p JOIN documents d USING (doc_id) GROUP BY 1, 2"
    )
    out["stickiness"] = (
        "WITH span AS (SELECT epoch_us(min(ts)) AS mn FROM events "
        "WHERE ts IS NOT NULL), "
        "o AS (SELECT (epoch_us(ts) - span.mn) // 86400000000 AS "
        "day, user_id AS u FROM events, span WHERE ts IS NOT NULL "
        "AND user_id IS NOT NULL), "
        "d AS (SELECT day, CAST(count(DISTINCT u) AS BIGINT) AS c "
        "FROM o GROUP BY 1), "
        "w AS (SELECT day // 7 AS wk, CAST(count(DISTINCT u) AS "
        "BIGINT) AS c FROM o GROUP BY 1), "
        "f AS (SELECT (SELECT CAST(count(*) AS BIGINT) FROM d) AS "
        "n_days, (SELECT CAST(count(*) AS BIGINT) FROM w) AS "
        "n_weeks, (SELECT CAST(sum(c) AS BIGINT) FROM d) AS ds, "
        "(SELECT CAST(sum(c) AS BIGINT) FROM w) AS ws) "
        "SELECT n_days, n_weeks, CAST(ds AS DOUBLE) / "
        "CAST(n_days AS DOUBLE) AS avg_dau, CAST(ws AS DOUBLE) / "
        "CAST(n_weeks AS DOUBLE) AS avg_wau, "
        "(CAST(ds AS DOUBLE) / CAST(n_days AS DOUBLE)) / "
        "(CAST(ws AS DOUBLE) / CAST(n_weeks AS DOUBLE)) AS "
        "stickiness FROM f"
    )
    out["order_value_deciles"] = (
        "WITH c AS (SELECT CAST(round(o_totalprice * 100) AS "
        "BIGINT) AS cents FROM orders WHERE o_totalprice IS NOT "
        "NULL) SELECT 'all' AS g, "
        + ", ".join(
            "CAST(percentile_disc(0.{q}) WITHIN GROUP (ORDER BY "
            "cents) AS DOUBLE) AS p{p}".format(q=i, p=i * 10)
            for i in range(1, 10)
        )
        + " FROM c"
    )
    out["pii_by_source"] = (
        # RE2 on both sides: len(regexp_extract_all) == the engine's
        # count_substring_regex
        "SELECT coalesce(source, '') AS source, "
        "CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(sum(len(regexp_extract_all(coalesce(text, ''), "
        "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))) AS "
        "BIGINT) AS n_emails, "
        "CAST(sum(len(regexp_extract_all(coalesce(text, ''), "
        "'\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b'))) AS "
        "BIGINT) AS n_ips, "
        "(CAST(sum(len(regexp_extract_all(coalesce(text, ''), "
        "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))) AS "
        "DOUBLE) + CAST(sum(len(regexp_extract_all(coalesce(text, "
        "''), '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b'))) "
        "AS DOUBLE)) / CAST(count(*) AS DOUBLE) AS pii_per_doc "
        "FROM documents GROUP BY 1"
    )
    out["sessions_per_user_hist"] = (
        "WITH o AS (SELECT user_id AS u, epoch_us(ts) AS t FROM "
        "events WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
        "m AS (SELECT u, CASE WHEN lag(t) OVER (PARTITION BY u "
        "ORDER BY t) IS NULL OR t - lag(t) OVER (PARTITION BY u "
        "ORDER BY t) > 1800000000 THEN 1 ELSE 0 END AS ns FROM o), "
        "c AS (SELECT u, CAST(sum(ns) AS BIGINT) AS n_sessions "
        "FROM m GROUP BY 1) "
        "SELECT n_sessions, CAST(count(*) AS BIGINT) AS n_users "
        "FROM c GROUP BY 1"
    )
    out["repeat_customers"] = (
        "WITH c AS (SELECT o_custkey AS ck, CAST(count(*) AS "
        "BIGINT) AS n FROM orders WHERE o_custkey IS NOT NULL "
        "GROUP BY 1) "
        "SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS "
        "n_customers, CAST(count(*) FILTER (WHERE n >= 2) AS "
        "BIGINT) AS n_repeat, CAST(count(*) FILTER (WHERE n >= 2) "
        "AS DOUBLE) / CAST(count(*) AS DOUBLE) AS repeat_share "
        "FROM c JOIN customer ON c_custkey = ck GROUP BY 1"
    )
    return out


def _sgr_spans_sql(t: str) -> str:
    """Closed-form span HTML for the five generator SGR openers under
    (MyDracula, DarkBg=True, BoldAsBright=True): the policy rules of
    functions/html.py (reference terminal2html.py:119-143) restated as
    a CASE over the opener's parameter string.  Palette hexes are the
    shared parity constants; everything else is independent SQL."""
    from console_log_parser_ray.functions.html import PALETTES

    c = PALETTES["MyDracula"]

    def bold2(inner: str) -> str:
        # bold first: default-fg bold uses the bright bF9 slot; the
        # following base color renders its bright variant with the
        # BoldAsBright=True font weight (normal)
        return (
            '<span style="color:{};font-weight:bold">'
            '<span style="color:{};font-weight:normal">'
        ).format(c[15], inner)

    arms = [
        ("01;32", bold2(c[10]), 2),
        ("1;31", bold2(c[9]), 2),
        ("33", '<span style="color:{}">'.format(c[3]), 1),
        # 256-color cube slot 196 = rgb(255,0,0)
        ("38;5;196", '<span style="color:#ff0000">', 1),
        ("04", '<span style="text-decoration:underline">', 1),
    ]
    case = " ".join(
        "WHEN '{}' THEN '{}' || body || '{}'".format(k, pre, "</span>" * n)
        for k, pre, n in arms
    )
    filt = (
        "regexp_matches(text, '^' || chr(27) || "
        "'\\[(01;32|33|1;31|38;5;196|04)m[^' || chr(27) || ']*' || "
        "chr(27) || '\\[0m$')"
    )
    return (
        "WITH m AS (SELECT conv_id, turn_idx, "
        "regexp_extract(text, '^' || chr(27) || '\\[([0-9;]+)m', 1) "
        "AS params, "
        "replace(replace(replace(replace("
        "regexp_extract(text, '^' || chr(27) || '\\[[0-9;]+m(.*)' || "
        "chr(27) || '\\[0m$', 1), "
        "'&', '&amp;'), '>', '&gt;'), '<', '&lt;'), '\"', '&quot;') "
        f"AS body FROM {t} WHERE {filt}) "
        f"SELECT conv_id, turn_idx, CASE params {case} END AS html FROM m"
    )


def _chapters_enrich_sql(t: str) -> str:
    """Mirror of _q_chapters_enrich's deterministic todo config: side
    tables exist for conversations below _CFG_CONVS (chapters every
    5th command of every 7th conv, suppression on cmd%4==2 of every
    3rd conv, hops cmd%6==3 -> next conv's cmd+1 of every 5th conv);
    the hop label's display number is the suppress-renumber closed form
    raw - ((raw-2)//4 + 1) when the target conv carries a suppress
    list."""
    b = _CFG_CONVS
    hop_cond = (
        f"ci % 5 = 0 AND ci < {b} AND ci + 1 < (SELECT n FROM nmax) "
        "AND cmd % 6 = 3"
    )
    return (
        "WITH cmds AS (SELECT DISTINCT conv_id, "
        "CAST(substr(conv_id, 5) AS INT) AS ci, "
        "CAST(expected_cmd_count AS INT) AS cmd "
        f"FROM {t} WHERE expected_cmd_count > 0), "
        "nmax AS (SELECT max(CAST(substr(conv_id, 5) AS INT)) + 1 AS n "
        f"FROM {t}) "
        "SELECT conv_id, cmd AS cmd_count, "
        f"CASE WHEN ci % 7 = 0 AND ci < {b} AND cmd % 5 = 1 "
        "THEN 'ch ' || conv_id || ' ' || cmd ELSE '' END AS chapter_title, "
        f"(ci % 3 = 0 AND ci < {b} AND cmd % 4 = 2) AS suppressed, "
        f"CASE WHEN {hop_cond} "
        "THEN printf('conv%06d#c%d', ci + 1, cmd + 1) "
        "ELSE '' END AS hop_to, "
        f"CASE WHEN {hop_cond} "
        "THEN ' jump to ' || printf('conv%06d', ci + 1) || ' command ' || "
        "CAST(cmd + 1 - CASE WHEN (ci + 1) % 3 = 0 "
        f"AND ci + 1 < {b} THEN (cmd - 1) // 4 + 1 ELSE 0 END AS VARCHAR) "
        "|| ' ' ELSE '' END AS hop_label "
        "FROM cmds WHERE "
        f"(ci % 7 = 0 AND ci < {b} AND cmd % 5 = 1) OR "
        f"(ci % 3 = 0 AND ci < {b} AND cmd % 4 = 2) OR "
        f"({hop_cond})"
    )


def _maybe_media_sql() -> dict[str, str]:
    """The media oracle needs its cached parquet written first; if /tmp
    is unavailable the query degrades to rows-only instead of breaking
    every oracle."""
    try:
        return {
            "media_features": _media_features_sql(),
            "media_resize": _media_resize_sql(),
            "media_frames": _media_frames_sql(),
        }
    except Exception:
        return {}


def _hexpair_sql(expr: str) -> str:
    """SQL expression decoding a 2-char hex pair to its byte value."""
    return (
        "(CAST(CASE WHEN unicode(substr({e},1,1)) >= 65 "
        "THEN unicode(substr({e},1,1)) - 55 "
        "ELSE unicode(substr({e},1,1)) - 48 END AS BIGINT) * 16 "
        "+ CAST(CASE WHEN unicode(substr({e},2,1)) >= 65 "
        "THEN unicode(substr({e},2,1)) - 55 "
        "ELSE unicode(substr({e},2,1)) - 48 END AS BIGINT))"
    ).format(e=expr)


def _media_frames_sql() -> str:
    """SQL mirror of the every-4th frame sampling: width and height
    come from the payload header (single bytes -- the generator bounds
    them below 256), pixels past the 20-byte header are exploded with
    their index, and a pixel is kept iff its frame index is a multiple
    of 4."""
    from console_log_parser_ray.stages.multimodal import ensure_video_table

    path = ensure_video_table(100)
    w_expr = _hexpair_sql("substr(hx, 25, 2)")
    h_expr = _hexpair_sql("substr(hx, 33, 2)")
    c_expr = _hexpair_sql("c")
    return f"""
WITH m AS (
  SELECT media_id, n_frames, hex(payload) AS hx
  FROM read_parquet('{path}')
),
hdr AS (
  SELECT media_id, n_frames, {w_expr} AS w, {h_expr} AS h,
    list_transform(regexp_extract_all(substr(hx, 41), '..'),
      c -> {c_expr}) AS bytes
  FROM m
),
px AS (
  SELECT media_id, w, h, gs.i AS i, bytes[gs.i] AS v
  FROM hdr, (SELECT unnest(generate_series(1, 8192)) AS i) gs
  WHERE gs.i <= len(bytes)
),
s AS (
  SELECT media_id, sum(v) AS total
  FROM px WHERE ((i - 1) // (w * h)) % 4 = 0 GROUP BY media_id
)
SELECT hdr.media_id,
  CAST(hdr.n_frames AS BIGINT) AS n_frames,
  CAST((hdr.n_frames + 3) // 4 AS BIGINT) AS n_sampled,
  CAST(s.total AS BIGINT) AS sampled_sum
FROM hdr JOIN s USING (media_id)
"""


def _media_resize_sql() -> str:
    """SQL mirror of the box-downsample: explode the hex-decoded pixel
    list to (row, col), group into factor-4 blocks, floor each block's
    mean, and sum the resized image -- all exact-integer arithmetic."""
    from console_log_parser_ray.stages.multimodal import ensure_media_table

    path = ensure_media_table(200)
    return f"""
WITH m AS (
  SELECT media_id, width, height, hex(payload) AS hx
  FROM read_parquet('{path}')
),
b AS (
  SELECT media_id, width, height,
    list_transform(regexp_extract_all(substr(hx, 33), '..'),
      c -> CAST(CASE WHEN unicode(substr(c,1,1)) >= 65
                THEN unicode(substr(c,1,1)) - 55
                ELSE unicode(substr(c,1,1)) - 48 END AS BIGINT) * 16
         + CAST(CASE WHEN unicode(substr(c,2,1)) >= 65
                THEN unicode(substr(c,2,1)) - 55
                ELSE unicode(substr(c,2,1)) - 48 END AS BIGINT)) AS bytes
  FROM m
),
px AS (
  SELECT media_id, width, gs.i AS i, bytes[gs.i] AS v
  FROM b, (SELECT unnest(generate_series(1, 4096)) AS i) gs
  WHERE gs.i <= len(bytes)
),
blk AS (
  SELECT media_id, ((i-1)//width)//4 AS br, (((i-1)%width))//4 AS bc,
         sum(v) // count(*) AS bv
  FROM px GROUP BY 1, 2, 3
),
s AS (SELECT media_id, sum(bv) AS total FROM blk GROUP BY media_id)
SELECT b.media_id,
  CAST((b.width + 3) // 4 AS INTEGER) AS rw,
  CAST((b.height + 3) // 4 AS INTEGER) AS rh,
  CAST(s.total AS BIGINT) AS resized_sum
FROM b JOIN s USING (media_id)
"""


def _media_features_sql() -> str:
    """SQL mirror of the fake-image decode: walk the payload blob's hex
    to recompute the exact integer pixel aggregates past the 16-byte
    header; decoded dimensions are checked against the stored metadata
    columns (equal by construction of the synthetic format)."""
    from console_log_parser_ray.stages.multimodal import ensure_media_table

    path = ensure_media_table(200)
    return f"""
WITH m AS (
  SELECT media_id, width, height, hex(payload) AS hx
  FROM read_parquet('{path}')
),
b AS (
  SELECT media_id, width, height,
    list_transform(regexp_extract_all(substr(hx, 33), '..'),
      c -> CAST(CASE WHEN unicode(substr(c,1,1)) >= 65
                THEN unicode(substr(c,1,1)) - 55
                ELSE unicode(substr(c,1,1)) - 48 END AS BIGINT) * 16
         + CAST(CASE WHEN unicode(substr(c,2,1)) >= 65
                THEN unicode(substr(c,2,1)) - 55
                ELSE unicode(substr(c,2,1)) - 48 END AS BIGINT)) AS bytes
  FROM m
)
SELECT media_id, width, height,
  CAST(list_sum(bytes) AS BIGINT) AS pixel_sum,
  CAST(len(bytes) AS BIGINT) AS n_pixels,
  list_sum(bytes) * 1.0 / len(bytes) AS pixel_mean
FROM b
"""


def _lang_pred_sql() -> str:
    """SQL mirror of textan.LangId: stopword-hit argmax over the first
    200 whitespace tokens, ties broken by table order, CJK fallback."""
    from console_log_parser_ray.stages.textan import _STOPWORDS

    langs = list(_STOPWORDS)

    def lst(ws):
        return "[" + ",".join("'" + w + "'" for w in sorted(ws)) + "]"

    hits = ", ".join(
        f"len(list_filter(toks, x -> list_contains({lst(_STOPWORDS[l])}, x)))"
        f" AS h_{l}"
        for l in langs
    )
    mx = "greatest(" + ",".join(f"h_{l}" for l in langs) + ")"
    cases = " ".join(f"WHEN h_{l} = mx THEN '{l}'" for l in langs[:-1])
    return (
        "WITH t AS (SELECT doc_id, text,"
        " list_slice(regexp_extract_all(text,'\\S+'),1,200) AS toks"
        f" FROM documents), h AS (SELECT doc_id, text, {hits} FROM t),"
        f" m AS (SELECT *, {mx} AS mx FROM h)"
        " SELECT doc_id, CASE"
        " WHEN mx = 0 THEN (CASE WHEN"
        " regexp_matches(substr(text,1,400), '[一-鿿]')"
        " THEN 'zh' ELSE 'unknown' END)"
        f" {cases} ELSE '{langs[-1]}' END AS lang_pred FROM m"
    )


def _simhash_sql() -> str:
    """SQL mirror of dedup.simhash: 64-bit weighted fingerprint over
    md5-based token hashes (the engine uses the first 8 bytes of md5
    big-endian precisely so this oracle can reproduce it)."""
    return """
WITH toks AS (
  SELECT doc_id, unnest(list_distinct(regexp_extract_all(text, '\\S+'))) AS tok
  FROM documents
),
th AS (
  SELECT doc_id, list_reduce(
    list_prepend(CAST(0 AS HUGEINT),
      list_transform(regexp_extract_all(substr(md5(tok),1,16), '.'),
        c -> CAST(CASE WHEN unicode(c) >= 97 THEN unicode(c)-87
                  ELSE unicode(c)-48 END AS HUGEINT))),
    (h, c) -> h * 16 + c) AS h
  FROM toks
),
bits AS (
  SELECT doc_id, b.b AS bit,
    CASE WHEN (CAST(h AS UBIGINT) >> b.b) & 1 = 1 THEN 1 ELSE -1 END AS vote
  FROM th, (SELECT unnest(range(64)) AS b) b
),
votes AS (SELECT doc_id, bit, sum(vote) AS v FROM bits GROUP BY 1, 2),
docs_sh AS (
  SELECT doc_id, CAST(coalesce(sum(CASE WHEN v > 0
    THEN CAST(1 AS UBIGINT) << CAST(bit AS INT) ELSE 0 END), 0)
    AS UBIGINT) AS simhash
  FROM votes GROUP BY 1
)
SELECT d.doc_id, CAST(coalesce(s.simhash, 0) AS UBIGINT) AS simhash
FROM documents d LEFT JOIN docs_sh s USING (doc_id)
"""


def _turn_events_sql(t: str) -> str:
    """SQL mirror of the per-turn event extraction (occurrence counts
    per (conv_id, turn_idx, kind, seq)); same well-formed-sequence
    argument as the histogram oracle.  BEL executes = BELs minus the
    OSC terminators that consume them."""
    return f"""
WITH lines AS (SELECT conv_id, turn_idx, text FROM {t}),
csi AS (
  SELECT conv_id, turn_idx, 'csi' AS kind, 'Esc[' || substr(m, 3) AS seq,
         CAST(count(*) AS BIGINT) AS n
  FROM (SELECT conv_id, turn_idx, unnest(regexp_extract_all(text,
        '\\x1b\\[[0-9:;<=>?]*[ -/]*[@-~]')) AS m FROM lines)
  GROUP BY 1, 2, 4
),
esc AS (
  SELECT conv_id, turn_idx, 'escape' AS kind, 'Esc' || substr(m, 2) AS seq,
         CAST(count(*) AS BIGINT) AS n
  FROM (SELECT conv_id, turn_idx,
        unnest(regexp_extract_all(text, '\\x1b([=>\\\\])')) AS m FROM lines)
  GROUP BY 1, 2, 4
),
dcsf AS (
  SELECT conv_id, turn_idx, 'dcs_function' AS kind,
         'EscP' || substr(m, 3) AS seq, CAST(count(*) AS BIGINT) AS n
  FROM (SELECT conv_id, turn_idx, unnest(regexp_extract_all(text,
        '\\x1bP[0-9:;<=>?]*[ -/]*[@-~]')) AS m FROM lines)
  GROUP BY 1, 2, 4
),
oscs AS (
  SELECT conv_id, turn_idx, 'osc_string' AS kind, payload AS seq,
         CAST(count(*) AS BIGINT) AS n
  FROM (SELECT conv_id, turn_idx, unnest(regexp_extract_all(text,
        '\\x1b\\]([^\\x07\\x1b]*)\\x07', 1)) AS payload FROM lines)
  GROUP BY 1, 2, 4
),
dcss AS (
  SELECT conv_id, turn_idx, 'dcs_string' AS kind, payload AS seq,
         CAST(count(*) AS BIGINT) AS n
  FROM (SELECT conv_id, turn_idx, unnest(regexp_extract_all(text,
        '\\x1bP[0-9:;<=>?]*[ -/]*[@-~]([^\\x1b]*)\\x1b\\\\', 1)) AS payload
        FROM lines)
  GROUP BY 1, 2, 4
),
cf AS (
  SELECT conv_id, turn_idx, 'control_function' AS kind, seq, n FROM (
    SELECT conv_id, turn_idx, '0x0a' AS seq, CAST(1 AS BIGINT) AS n FROM lines
    UNION ALL SELECT conv_id, turn_idx, '0x0d',
      CAST(length(text)-length(replace(text, chr(13), '')) AS BIGINT)
      FROM lines
    UNION ALL SELECT conv_id, turn_idx, '0x08',
      CAST(length(text)-length(replace(text, chr(8), '')) AS BIGINT)
      FROM lines
    UNION ALL SELECT conv_id, turn_idx, '0x09',
      CAST(length(text)-length(replace(text, chr(9), '')) AS BIGINT)
      FROM lines
    UNION ALL SELECT conv_id, turn_idx, '0x07',
      CAST(length(text)-length(replace(text, chr(7), ''))
        - len(regexp_extract_all(text,
              '\\x1b\\][^\\x07\\x1b]*\\x07')) AS BIGINT)
      FROM lines
  ) WHERE n > 0
)
SELECT * FROM csi UNION ALL SELECT * FROM esc UNION ALL SELECT * FROM dcsf
UNION ALL SELECT * FROM oscs UNION ALL SELECT * FROM dcss
UNION ALL SELECT * FROM cf
"""


def _seq_histogram_sql(t: str) -> str:
    """SQL mirror of the sequence histogram over the raw transcript
    text: the generated corpus contains only well-formed, within-line
    escape sequences, so regex extraction reproduces the tokenizer's
    event counts exactly (validated against the engine, which is itself
    conformance-tested against the reference's statistics dicts)."""
    return f"""
WITH lines AS (SELECT conv_id, text FROM {t}),
csi AS (
  SELECT 'csi' AS kind, 'Esc[' || substr(m, 3) AS seq,
         CAST(count(*) AS BIGINT) AS n
  FROM (SELECT unnest(regexp_extract_all(text,
        '\\x1b\\[[0-9:;<=>?]*[ -/]*[@-~]')) AS m FROM lines)
  GROUP BY 2
),
esc AS (
  SELECT 'escape' AS kind, 'Esc' || substr(m, 2) AS seq,
         CAST(count(*) AS BIGINT) AS n
  FROM (SELECT unnest(regexp_extract_all(text, '\\x1b([=>\\\\])')) AS m
        FROM lines)
  GROUP BY 2
),
dcsf AS (
  SELECT 'dcs_function' AS kind, 'EscP' || substr(m, 3) AS seq,
         CAST(count(*) AS BIGINT) AS n
  FROM (SELECT unnest(regexp_extract_all(text,
        '\\x1bP[0-9:;<=>?]*[ -/]*[@-~]')) AS m FROM lines)
  GROUP BY 2
),
cf AS (
  SELECT 'control_function' AS kind, seq, n FROM (
    SELECT '0x0a' AS seq, CAST(count(*) AS BIGINT) AS n FROM lines
    UNION ALL
    SELECT '0x0d', CAST(coalesce(sum(length(text)-length(replace(text,
      chr(13), ''))),0) AS BIGINT) FROM lines
    UNION ALL
    SELECT '0x08', CAST(coalesce(sum(length(text)-length(replace(text,
      chr(8), ''))),0) AS BIGINT) FROM lines
    UNION ALL
    SELECT '0x09', CAST(coalesce(sum(length(text)-length(replace(text,
      chr(9), ''))),0) AS BIGINT) FROM lines
  ) WHERE n > 0
),
oscs AS (
  SELECT 'osc_string' AS kind, payload AS seq,
         CAST(count(DISTINCT conv_id) AS BIGINT) AS n
  FROM (SELECT conv_id, unnest(regexp_extract_all(text,
        '\\x1b\\]([^\\x07\\x1b]*)\\x07', 1)) AS payload FROM lines)
  GROUP BY 2
),
dcss AS (
  SELECT 'dcs_string' AS kind, payload AS seq,
         CAST(count(DISTINCT conv_id) AS BIGINT) AS n
  FROM (SELECT conv_id, unnest(regexp_extract_all(text,
        '\\x1bP[0-9:;<=>?]*[ -/]*[@-~]([^\\x1b]*)\\x1b\\\\', 1)) AS payload
        FROM lines)
  GROUP BY 2
)
SELECT * FROM csi UNION ALL SELECT * FROM esc UNION ALL SELECT * FROM dcsf
UNION ALL SELECT * FROM cf UNION ALL SELECT * FROM oscs
UNION ALL SELECT * FROM dcss
"""
