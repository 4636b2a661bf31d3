"""Deduplication operators over document tables.

Large-scale training-data pipeline staples, each expressed Ray-Data-
first:

* exact dedup      -- hash per batch, one exchange on the hash, keep
                      the minimum id per identical text (text equality
                      verified inside each call, so a 64-bit
                      collision can never merge two distinct docs)
* MinHash + LSH    -- shingle -> 128 minhashes -> banded bucket keys ->
                      bucket groupby -> candidate pairs -> exact-Jaccard
                      verification via a doc_id hash-join (grouped
                      co-location), never materializing the corpus
* SimHash          -- 64-bit weighted fingerprint, vectorized with
                      numpy unpackbits over per-token hashes
* n-gram Jaccard   -- the exact verifier, reusable standalone; the
                      adjacent-id variant is a shift-key join

Shuffle discipline: every wide step keys on a *small* derived column
(64-bit hash, band bucket, doc_id), most through the one keyed
exchange ``sources.cache.map_keyed``; document text travels only through
the grouped joins that need it, and nothing is ever collected to the
driver or broadcast whole.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.cache import map_keyed
from .textan import ascii_tokens

_MERSENNE = (1 << 61) - 1
_N_PERM = 128
_N_BANDS = 32  # x 4 rows per band


_PROC_CACHE: dict = {}


def _cached_get(ref):
    """ray.get(ref) memoized per worker process.

    Task-pool stages use this where an actor would have fetched the
    broadcast object once in ``__init__``: the object deserializes once
    per process instead of once per task, with none of the cold actor
    spin-up that dominates short queries.  Bounded to a handful of
    refs; one worker only ever sees a few broadcast objects at a time.
    """
    import ray

    key = ref.hex()
    val = _PROC_CACHE.get(key)
    if val is None:
        if len(_PROC_CACHE) > 8:
            _PROC_CACHE.clear()
        val = _PROC_CACHE[key] = ray.get(ref)
    return val


def distinct_rows(ds, keys: list[str], n_buckets: int = 256):
    """Global DISTINCT on ``keys``, keeping one row (all columns) per
    key.  Suitable when duplicate keys carry identical payloads (so
    any-wins == first-wins); for value-dependent winners use a proper
    reduce.

    In-batch drop_duplicates first (the shuffle moves only one row per
    key per block), then a bounded hash-bucket shuffle with a
    vectorized in-group dedup -- group-dispatch count is n_buckets,
    never key cardinality.
    """
    import pandas as pd

    def local(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.drop_duplicates(keys, keep="first").copy()
        df["__bucket"] = (
            pd.util.hash_pandas_object(df[keys], index=False).to_numpy()
            % n_buckets
        ).astype("int32")
        return df

    def per_bucket(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates(keys, keep="first").drop(
            columns="__bucket"
        )

    return (
        ds.map_batches(local, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def _str_hash64(arr) -> np.ndarray:
    """Deterministic 63-bit content hash of each string of an Arrow
    string array, as non-negative int64; nulls hash like "".  Polars'
    xxhash (seed 0) over the whole array in native code; without
    polars (not a declared dependency), blake2b-8 per value.  Any
    fixed-seed hash serves, as long as every worker process computes
    the same one: where equality matters the string itself is
    compared, so a collision costs a candidate or balance, never
    correctness."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = pc.fill_null(arr, "")
    try:
        import polars as pl

        h = pl.from_arrow(arr, rechunk=False).hash(seed=0).to_numpy()
    except ImportError:
        h = np.fromiter(
            (
                int.from_bytes(
                    hashlib.blake2b(t.encode(), digest_size=8).digest(),
                    "big",
                )
                for t in arr.to_pylist()
            ),
            dtype=np.uint64,
            count=len(arr),
        )
    # clear the top bit before the signed cast: non-negative int64
    return (h.astype(np.uint64, copy=False) >> 1).astype(np.int64)


def _text_hash_batch(batch: pa.Table, text_col: str) -> pa.Table:
    """``batch`` plus ``text_hash``, the ``_str_hash64`` of ``text_col``:
    the exact dedups' exchange key (the text stays the equality key
    inside each call, so null and empty texts may share a hash)."""
    return batch.append_column(
        "text_hash",
        pa.array(_str_hash64(batch.column(text_col)), pa.int64()),
    )


def _by_text_hash(ds, fn, text_col: str, n_buckets: int):
    """``fn`` over tables that hold every row of their texts: one
    ``map_keyed`` exchange on ``text_hash``, dropped from the output."""
    return map_keyed(
        ds.map_batches(
            lambda b: _text_hash_batch(b, text_col), batch_format="pyarrow"
        ),
        fn,
        key="text_hash",
        n_buckets=n_buckets,
    ).drop_columns(["text_hash"])


def exact_dedup(ds, text_col="text", id_col="doc_id", n_shuffle_buckets=256):
    """Keep one row (minimum id) per identical text.

    One ``map_keyed`` exchange on the 64-bit text hash (bounded group
    count, small key) and the decision on the text itself inside each
    call: two distinct texts colliding into one hash each keep their
    own minimum-id row (collision-safe).  Identical texts always share
    a hash, hence a call, so the dedup is exact.  Size
    ``n_shuffle_buckets`` so one bucket's rows (corpus/n) fit a worker
    -- the partitioning knob to raise with corpus size.
    """

    def keep_first(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        # C-level group-min over the text: one hash pass instead of a
        # Python dict walk per row (text equality stays the dedup key,
        # so hash collisions remain harmless)
        df = pd.DataFrame(
            {
                "t": tbl.column(text_col).to_pandas(),
                "i": tbl.column(id_col).to_pandas(),
            }
        )
        rows = np.sort(
            df.groupby("t", sort=False, dropna=False)["i"]
            .idxmin()
            .to_numpy()
        )
        return tbl.take(pa.array(rows, pa.int64()))

    return _by_text_hash(ds, keep_first, text_col, n_shuffle_buckets)


def _conv_joined(
    tbl: pa.Table, conv_col: str, order_col: str, text_col: str,
    sep: str = "\n",
):
    """Sort one bucket group by (conv, order) and join each
    conversation's turn texts with ``sep`` in ONE vectorized
    ``pc.binary_join`` -- no Python walk over rows (the old per-row
    boundary loop was the only O(rows) Python left in the reassembly
    family).  Returns ``(conv_ids Array, joined Array, n_turns
    int64 ndarray)``, one entry per conversation."""
    if tbl.column(conv_col).null_count:
        # unreachable via the conversation operators (the bucket
        # column rejects nulls first) -- guard direct callers too:
        # nulls sort last here and a null boundary comparison would
        # silently merge the null group into its neighbor
        raise ValueError(
            f"null {conv_col!r} values are unsupported in "
            "conversation reassembly; filter or impute nulls upstream"
        )
    tbl = tbl.sort_by(
        [(conv_col, "ascending"), (order_col, "ascending")]
    )
    convs = tbl.column(conv_col).combine_chunks()
    n = len(convs)
    if n == 0:
        return convs, pa.array([], pa.string()), np.zeros(0, np.int64)
    neq = pc.not_equal(convs.slice(1), convs.slice(0, n - 1)).to_numpy(
        zero_copy_only=False
    )
    starts = np.concatenate([[0], np.flatnonzero(neq) + 1]).astype(
        np.int64
    )
    offsets = np.concatenate([starts, [n]])
    texts = pc.fill_null(tbl.column(text_col).combine_chunks(), "")
    lists = pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32), pa.int32()), texts
    )
    joined = pc.binary_join(lists, sep)
    return (
        convs.take(pa.array(starts, pa.int64())),
        joined,
        np.diff(offsets).astype(np.int64),
    )


def conversation_fingerprints(
    src, conv_col="conv_id", order_col="turn_idx", text_col="text",
    n_buckets=64,
):
    """Per-conversation content fingerprint over the (large) transcript
    table: md5 of the newline-joined turn texts in turn order, plus the
    turn count -- the key for conversation-level exact dedup at
    10^12-turn scale.

    ``src`` is a path or a Dataset, run through ``map_keyed``:
    one task per file of a conversation-complete directory, else one
    conv-bucket shuffle (conversations never split; size ``n_buckets``
    so one bucket's turns fit a worker).  Each call emits one tiny row
    per conversation, so the output is #conversations rows regardless
    of input size.
    """
    return map_keyed(
        src,
        lambda t: _fingerprint_rows(t, conv_col, order_col, text_col),
        key=conv_col,
        n_buckets=n_buckets,
        columns=[conv_col, order_col, text_col],
    )


def _fingerprint_rows(
    tbl: pa.Table, conv_col="conv_id", order_col="turn_idx", text_col="text"
) -> pa.Table:
    """(conv, conv_hash, n_turns) rows of a table of whole conversations."""
    convs, joined, n_turns = _conv_joined(tbl, conv_col, order_col, text_col)
    # md5 per CONVERSATION (bounded by convs in the table, never rows);
    # the digest itself runs at C speed over the joined text
    hashes = [hashlib.md5(s.encode()).hexdigest() for s in joined.to_pylist()]
    return pa.table(
        {
            conv_col: convs,
            "conv_hash": pa.array(hashes, pa.string()),
            "n_turns": pa.array(n_turns, pa.int64()),
        }
    )


def conversation_exact_dedup(ds, **kwargs):
    """Conversation-level exact dedup: keep the lexicographically first
    conv_id per identical content fingerprint.

    The dedup key is (conv_hash, n_turns), not the hash alone: the
    fingerprint is md5 of the NEWLINE-joined turn texts, so on generic
    input where a turn text may itself embed a newline, two different
    turn segmentations of the same character stream would alias to one
    hash; the turn count disambiguates them.

    Scale shape: one ``map_keyed`` exchange on conv_hash (dispatch
    bounded by the bucket count, never the number of distinct
    fingerprints) and one vectorized pandas groupby-min per call folds
    every fingerprint in it at once.
    """

    def keep_first(tbl: pa.Table) -> pa.Table:
        keep = tbl.select(["conv_id", "conv_hash", "n_turns"])
        df = keep.to_pandas()
        df = df.sort_values("conv_id", kind="mergesort")
        df = df.groupby(["conv_hash", "n_turns"], sort=False).head(1)
        return pa.Table.from_pandas(df, preserve_index=False).cast(
            keep.schema
        )

    return map_keyed(
        conversation_fingerprints(ds, **kwargs),
        keep_first,
        key="conv_hash",
        n_buckets=64,
    )


def _shingles(text: str, k: int = 3):
    toks = ascii_tokens(text)
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}


def ngram_jaccard(a: str, b: str, k: int = 3) -> float:
    sa, sb = _shingles(a, k), _shingles(b, k)
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter) if (sa or sb) else 0.0


class _MinHasher:
    """Stateful per-actor minhash machinery (perm tables built once)."""

    def __init__(self, k: int = 3, seed: int = 7):
        rng = np.random.default_rng(seed)
        # odd multipliers for multiplicative hashing mod 2^64 (uint64
        # wraparound is the modulus; fully vectorized)
        self.a = (rng.integers(1, 1 << 62, _N_PERM, dtype=np.uint64) << 1) | 1
        self.b = rng.integers(0, 1 << 63, _N_PERM, dtype=np.uint64)
        self.k = k
        self._memo: dict = {}

    def signature(self, text: str) -> np.ndarray:
        return self.batch_signatures([text])[0]

    def batch_signatures(self, texts: list) -> np.ndarray:
        """(n_docs, _N_PERM) uint64 signatures for a whole batch.

        One flat shingle-hash array for the batch (shingle -> blake2b
        memoized per actor: word-soup corpora repeat shingles heavily),
        then per-permutation multiplicative hashing with a segmented
        ``np.minimum.reduceat`` -- 128 vectorized passes instead of one
        Python matrix per document.  Empty docs get the zero signature.
        """
        memo = self._memo
        flat: list[int] = []
        counts = np.zeros(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            sh = _shingles(t, self.k)
            counts[i] = len(sh)
            for s in sh:
                h = memo.get(s)
                if h is None:
                    h = int.from_bytes(
                        hashlib.blake2b(s.encode(), digest_size=8).digest(),
                        "big",
                    )
                    if len(memo) < 1_000_000:  # bound actor memory
                        memo[s] = h
                flat.append(h)
        sigs = np.zeros((len(texts), _N_PERM), dtype=np.uint64)
        if not flat:
            return sigs
        base = np.array(flat, dtype=np.uint64)
        nz = counts > 0
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1][nz]
        for p in range(_N_PERM):
            vals = base * self.a[p] + self.b[p]  # uint64 wraparound mod
            sigs[nz, p] = np.minimum.reduceat(vals, starts)
        return sigs


_HASHERS: dict = {}


def _get_hasher(k: int) -> "_MinHasher":
    """Per-process hasher cache: perm tables + shingle-hash memo are
    built once per worker, the task-pool equivalent of actor state
    (construction is cheap and deterministic, so tasks beat the cold
    actor spin-up that dominates short queries)."""
    h = _HASHERS.get(k)
    if h is None:
        h = _HASHERS[k] = _MinHasher(k=k)
    return h


def minhash_band_batch(
    batch: pa.Table, text_col="text", id_col="doc_id", k=3, subdiv=8
) -> pa.Table:
    """text -> banded LSH bucket keys (flat output), one row per
    (doc, band): (g, bucket, doc_id) where g = band * subdiv +
    bucket mod subdiv is the shuffle key (equal buckets always share
    a g; one band spreads over subdiv groups)."""
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    n = len(texts)
    h = _get_hasher(k)
    rpb = _N_PERM // _N_BANDS
    sigs = h.batch_signatures(texts)  # (n, _N_PERM)
    # Per-band bucket = multiplicative mix of the band's rpb minhash
    # values, vectorized over (doc, band).  Process-independent
    # (pure uint64 arithmetic -- builtin hash() is salted per
    # interpreter); two docs share a bucket iff their band
    # signatures collide under the mix, the LSH contract.
    v = sigs.reshape(n, _N_BANDS, rpb)
    mix = v[:, :, 0].copy()
    mult = np.uint64(0x9E3779B97F4A7C15)
    for r in range(1, rpb):
        mix = (mix * mult) ^ v[:, :, r]
    # fold the band index in so identical signatures in different
    # bands never alias, then clear the sign bit for int64 storage
    mix = (mix * mult) ^ np.arange(_N_BANDS, dtype=np.uint64)[None, :]
    mix >>= np.uint64(1)
    bands_row = np.tile(np.arange(_N_BANDS, dtype=np.int64), n)
    buckets = mix.reshape(-1).astype(np.int64)
    g = bands_row * subdiv + (buckets % subdiv)
    return pa.table(
        {
            "g": pa.array(g.astype(np.int32), pa.int32()),
            "bucket": pa.array(buckets, pa.int64()),
            "doc_id": pa.array(
                np.repeat(np.asarray(ids, dtype=np.int64), _N_BANDS),
                pa.int64(),
            ),
        }
    )


def minhash_candidate_pairs(ds, text_col="text", id_col="doc_id", k=3,
                            dedup=True, band_subdivisions=8):
    """LSH candidate pairs (doc_a < doc_b).

    One shuffle keyed on (band, bucket mod ``band_subdivisions``):
    pairs only form between rows whose full bucket matches, so
    subdividing a band by bucket bits preserves the pair set exactly
    while capping one group at ~1/band_subdivisions of the corpus --
    a whole band of a 10^9-doc corpus must never land in a single
    map_groups worker.  Raise band_subdivisions with corpus size (the
    partitioning knob); bucket collisions inside each group are
    enumerated with a vectorized sort + run scan.  ``dedup=False``
    skips the cross-band pair dedup shuffle (callers that feed a
    doc_a-keyed join can dedup inside that join for free).
    """
    bands = ds.map_batches(
        minhash_band_batch,
        fn_kwargs={
            "text_col": text_col,
            "id_col": id_col,
            "k": k,
            "subdiv": band_subdivisions,
        },
        batch_format="pyarrow",
    )

    def pairs_in_band(tbl: pa.Table) -> pa.Table:
        buckets = tbl.column("bucket").to_numpy(zero_copy_only=False)
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, buckets))
        buckets, ids = buckets[order], ids[order]
        # run boundaries of equal-bucket spans; only runs >= 2 collide
        change = np.flatnonzero(np.diff(buckets)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(buckets)]))
        a, b = [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            run = np.unique(ids[s:e])
            for i in range(len(run)):
                for j in range(i + 1, len(run)):
                    a.append(run[i])
                    b.append(run[j])
        return pa.table(
            {"doc_a": pa.array(a, pa.int64()), "doc_b": pa.array(b, pa.int64())}
        )

    cand = bands.groupby("g").map_groups(
        pairs_in_band, batch_format="pyarrow"
    )
    if not dedup:
        return cand
    return _dedup_pair_rows(cand)


def _attach_text(pairs_ds, docs_ds, key_col, other_col, carry_col,
                 text_col, id_col, out_text_col, n_join_buckets=32,
                 dedup_pairs=False):
    """Hash-join text onto candidate pairs via grouped co-location.

    Both sides are tagged and go through one ``map_keyed`` exchange on
    the int key; each call runs one vectorized Arrow index_in/take join
    of its pair rows against its doc rows -- no broadcast, no driver
    materialization.  Size ``n_join_buckets`` so one bucket's doc slice
    fits a worker.  Pair rows whose key has no matching document are
    dropped (can only happen if the candidate generator saw ids the doc
    table lacks).
    """

    def tag_pairs(b: pa.Table) -> pa.Table:
        n = b.num_rows
        key = b.column(key_col).cast(pa.int64())
        return pa.table(
            {
                "key": key,
                "side": pa.array(["p"] * n, pa.string()),
                "other": b.column(other_col).cast(pa.int64()),
                "carry": (
                    b.column(carry_col)
                    if carry_col
                    else pa.nulls(n, pa.string())
                ),
                "doc_text": pa.nulls(n, pa.string()),
            }
        )

    def tag_docs(b: pa.Table) -> pa.Table:
        n = b.num_rows
        key = b.column(id_col).cast(pa.int64())
        return pa.table(
            {
                "key": key,
                "side": pa.array(["d"] * n, pa.string()),
                "other": pa.nulls(n, pa.int64()),
                "carry": pa.nulls(n, pa.string()),
                "doc_text": b.column(text_col),
            }
        )

    def join_group(tbl: pa.Table) -> pa.Table:
        is_doc = pc.equal(tbl.column("side"), "d")
        docs = tbl.filter(is_doc)
        pairs = tbl.filter(pc.invert(is_doc))
        if dedup_pairs:
            # pairs duplicated across LSH bands all share this bucket
            # (keyed on doc_a), so the dedup is local and shuffle-free
            pairs = _dedup_pairs_local(pairs)
        doc_keys = docs.column("key").combine_chunks()
        idx = pc.index_in(pairs.column("key"), value_set=doc_keys)
        text = pc.take(docs.column("doc_text").combine_chunks(), idx)
        cols = {
            key_col: pairs.column("key"),
            other_col: pairs.column("other"),
            out_text_col: text,
        }
        if carry_col:
            cols[carry_col] = pairs.column("carry")
        out = pa.table(cols)
        return out.filter(pc.is_valid(out.column(out_text_col)))

    return map_keyed(
        [
            pairs_ds.map_batches(tag_pairs, batch_format="pyarrow"),
            docs_ds.map_batches(tag_docs, batch_format="pyarrow"),
        ],
        join_group,
        key="key",
        n_buckets=n_join_buckets,
    )


def _dedup_pair_rows(pairs_ds, n_buckets: int = 256):
    """Distinct (doc_a, doc_b) rows via ONE ``map_keyed`` exchange on
    doc_a.

    The naive ``groupby([doc_a, doc_b])`` dispatches a Python group
    call PER PAIR -- at billions of candidate pairs the dispatch alone
    dominates.  Here the group count is bounded by ``n_buckets`` and
    the dedup inside each call is one vectorized lexsort run-scan.
    Duplicate copies of a pair always share doc_a, so they land in the
    same call; extra columns (e.g. cosine) ride along and the first
    copy's values are kept (copies carry identical values by
    construction)."""

    def dedup_group(tbl: pa.Table) -> pa.Table:
        a = tbl.column("doc_a").to_numpy(zero_copy_only=False)
        b = tbl.column("doc_b").to_numpy(zero_copy_only=False)
        if len(a) == 0:
            return tbl
        order = np.lexsort((b, a))
        sa, sb = a[order], b[order]
        keep = np.ones(len(order), dtype=bool)
        keep[1:] = (np.diff(sa) != 0) | (np.diff(sb) != 0)
        return tbl.take(pa.array(order[keep]))

    return map_keyed(
        pairs_ds, dedup_group, key="doc_a", n_buckets=n_buckets
    )


def _dedup_pairs_local(pairs: pa.Table) -> pa.Table:
    """Distinct (key, other) rows of a tagged pair slice (carry is null
    at this stage by construction)."""
    keys = pairs.column("key").to_numpy(zero_copy_only=False)
    others = pairs.column("other").to_numpy(zero_copy_only=False)
    order = np.lexsort((others, keys))
    keys, others = keys[order], others[order]
    if len(keys) == 0:
        return pairs
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = (np.diff(keys) != 0) | (np.diff(others) != 0)
    return pairs.take(pa.array(order[keep]))


def minhash_near_dups(
    ds,
    threshold=0.5,
    text_col="text",
    id_col="doc_id",
    k=3,
    broadcast_pair_limit=2_000_000,
    max_broadcast_text_bytes: int = 1 << 30,
):
    """Near-duplicate pairs: LSH candidates verified by exact Jaccard.

    Size-adaptive verification (the broadcast-vs-shuffle join choice a
    planner would make): candidate pairs are materialized (they are the
    small derived side), and

    * if the pair count is within ``broadcast_pair_limit``, only the
      texts of documents that APPEAR IN CANDIDATES are fetched (one
      filtered narrow scan, bounded by the candidate set -- never the
      corpus) and broadcast to a verify stage: one shuffle total;
    * otherwise the texts are attached with two grouped hash-joins on
      doc_id -- the document table is shuffled, never collected, so the
      operator survives corpora that do not fit any single machine.
    """
    cand = minhash_candidate_pairs(
        ds, text_col=text_col, id_col=id_col, k=k, dedup=False
    ).materialize()
    if cand.count() <= broadcast_pair_limit:
        fast = _verify_broadcast(
            ds, cand, threshold, text_col, id_col, k,
            max_text_bytes=max_broadcast_text_bytes,
        )
        if fast is not None:  # None = candidate texts over byte budget
            return fast

    # attach text_a keyed on doc_a (deduping cross-band pair copies
    # inside the same join groups), then text_b keyed on doc_b
    with_a = _attach_text(
        cand, ds, "doc_a", "doc_b", None, text_col, id_col, "text_a",
        dedup_pairs=True,
    )
    with_both = _attach_text(
        with_a, ds, "doc_b", "doc_a", "text_a", text_col, id_col, "text_b"
    )

    def verify(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_pylist()
        b = batch.column("doc_b").to_pylist()
        ta = batch.column("text_a").to_pylist()
        tb = batch.column("text_b").to_pylist()
        j = [ngram_jaccard(x, y, k) for x, y in zip(ta, tb)]
        out = pa.table(
            {
                "doc_a": pa.array(a, pa.int64()),
                "doc_b": pa.array(b, pa.int64()),
                "jaccard": pa.array(j, pa.float64()),
            }
        )
        return out.filter(
            pc.greater_equal(out.column("jaccard"), pa.scalar(threshold))
        )

    return with_both.map_batches(verify, batch_format="pyarrow")


def _simhash_token_hash(tok: str) -> int:
    """64-bit token hash for simhash: the first 8 bytes of md5,
    big-endian -- chosen over blake2b so the DuckDB oracle can compute
    the identical value (md5 is available in SQL, blake2b is not)."""
    return int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "big")


def _verify_broadcast(
    ds, cand, threshold, text_col, id_col, k,
    max_text_bytes: int = 1 << 30,
):
    """Small-candidate-set verify: fetch ONLY the candidate documents'
    texts (narrow scan + id filter; bounded by the candidate set) and
    verify pairs against the broadcast map -- one driver-side dedup,
    zero extra shuffles.

    The filtered text set is MATERIALIZED and metadata-byte-counted
    before anything is collected: the pair count bounds how many
    documents are fetched but not how large each is, so a candidate
    set of few-but-huge documents would otherwise blow the driver
    fold.  Returns ``None`` above ``max_text_bytes`` -- the caller
    falls through to its grouped-join verify plan."""
    import ray

    pairs = set()
    for b in cand.iter_batches(batch_format="pyarrow", batch_size=None):
        pairs.update(
            zip(b.column("doc_a").to_pylist(), b.column("doc_b").to_pylist())
        )
    wanted = {a for a, _ in pairs} | {b for _, b in pairs}
    wanted_ref = ray.put(wanted)

    def keep_wanted(b: pa.Table) -> pa.Table:
        w = _cached_get(wanted_ref)
        mask = pa.array(
            [i in w for i in b.column(id_col).to_pylist()],
            pa.bool_(),
        )
        return b.select([id_col, text_col]).filter(mask)

    filt = ds.map_batches(
        keep_wanted, batch_format="pyarrow"
    ).materialize()
    if (filt.size_bytes() or 0) > max_text_bytes:
        return None
    texts = {}
    for b in filt.iter_batches(batch_format="pyarrow", batch_size=None):
        texts.update(
            zip(b.column(id_col).to_pylist(), b.column(text_col).to_pylist())
        )
    texts_ref = ray.put(texts)
    pair_list = sorted(pairs)
    pairs_tbl = pa.table(
        {
            "doc_a": pa.array([a for a, _ in pair_list], pa.int64()),
            "doc_b": pa.array([b for _, b in pair_list], pa.int64()),
        }
    )
    import ray.data

    def verify(batch: pa.Table) -> pa.Table:
        tx = _cached_get(texts_ref)
        a = batch.column("doc_a").to_pylist()
        b = batch.column("doc_b").to_pylist()
        j = [ngram_jaccard(tx[x], tx[y], k) for x, y in zip(a, b)]
        out = batch.append_column("jaccard", pa.array(j, pa.float64()))
        return out.filter(
            pc.greater_equal(out.column("jaccard"), pa.scalar(threshold))
        )

    return ray.data.from_arrow(pairs_tbl).map_batches(
        verify, batch_format="pyarrow", batch_size=4096
    )


def _token_hashes(texts, memo):
    """Per-text arrays of 64-bit token hashes of the distinct tokens,
    memoized across the batch (token vocabularies repeat heavily)."""
    out = []
    for t in texts:
        toks = set(ascii_tokens(t))
        arr = np.empty(len(toks), dtype=np.uint64)
        for i, tok in enumerate(toks):
            h = memo.get(tok)
            if h is None:
                h = _simhash_token_hash(tok)
                memo[tok] = h
            arr[i] = h
        out.append(arr)
    return out


_SIMHASH_MEMO: dict = {}
_SIMHASH_WEIGHTS = np.uint64(1) << np.arange(64, dtype=np.uint64)


class SimHashStage:
    """Vectorized 64-bit simhash per document (task-pool map_batches;
    the token-hash memo lives at module level, once per worker
    process -- the task equivalent of per-actor state without cold
    actor spin-up).

    Per batch: hash each distinct token once (memoized across batches
    in the process), unpack all token hashes to a (n_tokens_total, 64)
    bit matrix, segment-sum the +/-1 votes per document with
    np.add.reduceat, and read the sign bits -- no per-bit Python loop.
    """

    def __init__(self, text_col="text", id_col="doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self.memo = _SIMHASH_MEMO
        self._weights = _SIMHASH_WEIGHTS

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(self.memo) > 2_000_000:  # bound process memory
            self.memo.clear()
        texts = batch.column(self.text_col).to_pylist()
        hashes = _token_hashes(texts, self.memo)
        lens = np.array([len(h) for h in hashes], dtype=np.int64)
        n = len(texts)
        if lens.sum() == 0:
            out = np.zeros(n, dtype=np.uint64)
        else:
            flat = np.concatenate([h for h in hashes if len(h)])
            # bits[i, b] = bit b (LSB-first) of token hash i
            bits = np.unpackbits(
                flat.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
            ).astype(np.int32)
            votes2 = 2 * bits  # votes = sum(2b - 1) = 2*sum(b) - n_tok
            starts = np.zeros(n, dtype=np.int64)
            np.cumsum(lens[:-1], out=starts[1:])
            nonempty = lens > 0
            seg = np.zeros((n, 64), dtype=np.int64)
            if nonempty.any():
                seg_sums = np.add.reduceat(
                    votes2, starts[nonempty], axis=0
                )
                seg[nonempty] = seg_sums
            v = seg - lens[:, None]
            out = ((v > 0).astype(np.uint64) * self._weights[None, :]).sum(
                axis=1, dtype=np.uint64
            )
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "simhash": pa.array(out, pa.uint64()),
            }
        )


def _simhash64(text: str) -> int:
    """Scalar reference implementation (kept for tests)."""
    v = np.zeros(64, dtype=np.int64)
    for tok in set(ascii_tokens(text)):
        h = _simhash_token_hash(tok)
        for bit in range(64):
            v[bit] += 1 if (h >> bit) & 1 else -1
    out = 0
    for bit in range(64):
        if v[bit] > 0:
            out |= 1 << bit
    return out


def _simhash_batch(batch: pa.Table, text_col="text", id_col="doc_id"):
    return SimHashStage(text_col, id_col)(batch)


def simhash(ds, text_col="text", id_col="doc_id"):
    """Adds a 64-bit simhash fingerprint column (vectorized)."""
    return ds.map_batches(
        _simhash_batch,
        fn_kwargs={"text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
    )


_POPCOUNT8 = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)


def simhash_near_dups(
    ds,
    max_hamming: int = 3,
    text_col="text",
    id_col="doc_id",
):
    """Near-duplicate pairs by simhash Hamming distance -- banded
    (pigeonhole) blocking with FULL recall: split the 64-bit simhash
    into ``max_hamming + 1`` bands; two hashes within ``max_hamming``
    differing bits can touch at most ``max_hamming`` bands, so at
    least one band matches exactly and the pair lands in that band's
    group.  Returns distinct ``(doc_a, doc_b, hamming)`` with
    ``doc_a < doc_b``.

    Scale shape: one band-key shuffle of tiny (band_key, doc_id,
    simhash) rows -- never text; within each group the all-pairs
    Hamming check is a chunked numpy xor + byte-table popcount (memory
    bounded per chunk even for degenerate bands, e.g. the all-zeros
    hash of empty documents); cross-band duplicate pairs are removed
    by the coarse-bucket vectorized dedup (``_dedup_pair_rows``), not
    a per-pair groupby."""
    import ray.data  # noqa: F401  (ds is already a Dataset)

    n_bands = max_hamming + 1
    width = 64 // n_bands
    mask = (1 << width) - 1

    sigs = simhash(ds, text_col=text_col, id_col=id_col)

    def explode_bands(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        sh = b.column("simhash").to_numpy(zero_copy_only=False)
        out_key = np.empty(len(ids) * n_bands, dtype=np.int64)
        for i in range(n_bands):
            val = (sh >> np.uint64(i * width)) & np.uint64(mask)
            # band id in the high bits keeps bands disjoint
            out_key[i::n_bands] = (np.int64(i) << np.int64(width + 1)) | (
                val.astype(np.int64)
            )
        return pa.table(
            {
                "band_key": pa.array(out_key, pa.int64()),
                "doc_id": pa.array(np.repeat(ids, n_bands), pa.int64()),
                "simhash": pa.array(np.repeat(sh, n_bands), pa.uint64()),
            }
        )

    def pairs_in_group(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        sh = tbl.column("simhash").to_numpy(zero_copy_only=False)
        m = len(ids)
        if m < 2:
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "hamming": pa.array([], pa.int64()),
                }
            )
        order = np.argsort(ids, kind="stable")
        ids, sh = ids[order], sh[order]
        out_a, out_b, out_h = [], [], []
        # chunk the row side so the (chunk, m) xor matrix stays small
        chunk = max(1, 4_000_000 // max(m, 1))
        for s in range(0, m, chunk):
            e = min(s + chunk, m)
            x = sh[s:e, None] ^ sh[None, :]
            ham = (
                _POPCOUNT8[x.view(np.uint8)]
                .reshape(e - s, m, 8)
                .sum(axis=2, dtype=np.int64)
            )
            # strict upper triangle only: doc_a < doc_b positionally
            # (ids are sorted, duplicates of one id pair once)
            ri, ci = np.nonzero(ham <= max_hamming)
            keep = (ri + s) < ci
            out_a.append(ids[ri[keep] + s])
            out_b.append(ids[ci[keep]])
            out_h.append(ham[ri[keep], ci[keep]])
        return pa.table(
            {
                "doc_a": pa.array(np.concatenate(out_a), pa.int64()),
                "doc_b": pa.array(np.concatenate(out_b), pa.int64()),
                "hamming": pa.array(np.concatenate(out_h), pa.int64()),
            }
        )

    cand = (
        sigs.map_batches(explode_bands, batch_format="pyarrow")
        .groupby("band_key")
        .map_groups(pairs_in_group, batch_format="pyarrow")
    )
    return _dedup_pair_rows(cand)


def token_jaccard_adjacent(ds, id_col="doc_id", text_col="text"):
    """Token-set Jaccard between each document and its id+1 neighbor.

    Shift-key join: each document is emitted twice -- once under its
    own id ("self") and once under id-1 ("next", i.e. as the successor
    of its predecessor) -- and one grouped pass per key computes the
    similarity when both sides are present.  Gaps in the id space
    simply produce single-sided groups with no output row; nothing is
    collected to the driver or broadcast.
    """

    def tag(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).cast(pa.int64())
        texts = b.column(text_col)
        n = b.num_rows
        self_side = pa.table(
            {
                "key": ids,
                "side": pa.array(["s"] * n, pa.string()),
                "text": texts,
            }
        )
        next_side = pa.table(
            {
                "key": pc.subtract(ids, pa.scalar(1, pa.int64())),
                "side": pa.array(["n"] * n, pa.string()),
                "text": texts,
            }
        )
        return pa.concat_tables([self_side, next_side])

    def jac_bucket(tbl: pa.Table) -> pa.Table:
        # one call per COARSE key bucket (per-key map_groups dispatches
        # a Python call per doc id; the dispatch dominates at scale):
        # sort the bucket by key and walk the equal-key runs
        tbl = tbl.sort_by([("key", "ascending"), ("side", "descending")])
        keys = tbl.column("key").to_numpy(zero_copy_only=False)
        sides = tbl.column("side").to_pylist()
        texts = tbl.column("text").to_pylist()
        out_k, out_j = [], []
        i, n = 0, len(keys)
        while i < n:
            j = i
            t_self = t_next = None
            while j < n and keys[j] == keys[i]:
                if sides[j] == "s":
                    t_self = texts[j]
                else:
                    t_next = texts[j]
                j += 1
            if t_self is not None and t_next is not None:
                a = frozenset(ascii_tokens(t_self))
                b = frozenset(ascii_tokens(t_next))
                inter = len(a & b)
                union = len(a) + len(b) - inter
                out_k.append(int(keys[i]))
                out_j.append(inter / union if union else 1.0)
            i = j
        return pa.table(
            {
                "doc_a": pa.array(out_k, pa.int64()),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    return map_keyed(
        ds.map_batches(tag, batch_format="pyarrow"),
        jac_bucket,
        key="key",
        n_buckets=256,
    )


def embedding_near_dups(
    ds,
    threshold=0.9,
    vec_col="embedding",
    id_col="vec_id",
    n_clusters=16,
    n_probe=2,
    method="ivf",
):
    """Embedding-cosine near-duplicate pairs (a < b, cosine >= threshold).

    ``method="ivf"`` (default, the scale path): vectors are assigned to
    their ``n_probe`` nearest k-means centroid buckets (centroids fit
    on a bounded sample, broadcast once); each bucket group computes
    its pairwise similarities locally and pairs are deduplicated with a
    final small groupby.  Only bucket-sized blocks are ever held in
    memory -- size ``n_clusters`` so N/n_clusters x dim fits a worker;
    a pair is found iff the two vectors share one of their probed
    buckets, which holds for any pair at near-dup cosine levels (the
    recall-vs-brute-force test pins this on the planted corpus).

    ``method="brute"``: exact O(N^2) baseline for small corpora and for
    the recall test; computed per-bucket-free via a single group (kept
    deliberately simple -- it exists to validate the IVF path).
    """
    from .similarity import _normalize, as_matrix, kmeans_centroids

    def pairs_in_bucket(tbl: pa.Table) -> pa.Table:
        ids = (
            tbl.column(id_col)
            .cast(pa.int64())
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
        )
        mat = _normalize(as_matrix(tbl.column(vec_col), dtype=np.float64))
        sims = mat @ mat.T
        ai, bi = np.where(sims >= threshold)
        keep = ids[ai] < ids[bi]
        ai, bi = ai[keep], bi[keep]
        return pa.table(
            {
                "doc_a": pa.array(ids[ai], pa.int64()),
                "doc_b": pa.array(ids[bi], pa.int64()),
                "cosine": pa.array(sims[ai, bi], pa.float64()),
            }
        )

    if method == "brute":
        # exact all-pairs: one group holds everything (validation-scale
        # corpora only; the IVF path is the at-scale default)
        def one_bucket(b: pa.Table) -> pa.Table:
            return b.append_column(
                "bucket", pa.array([0] * b.num_rows, pa.int32())
            )

        return (
            ds.map_batches(one_bucket, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(pairs_in_bucket, batch_format="pyarrow")
        )

    import ray

    cent = kmeans_centroids(ds, n_clusters=n_clusters, vec_col=vec_col)
    cent_ref = ray.put(cent)

    def assign_probes(b: pa.Table) -> pa.Table:
        cent = _cached_get(cent_ref)
        mat = _normalize(as_matrix(b.column(vec_col), dtype=np.float64))
        sims = mat @ cent.T
        k = min(n_probe, sims.shape[1])
        probes = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        # replicate each row into its k probe buckets with one take --
        # no per-row Python loop
        n = b.num_rows
        row_idx = pa.array(
            np.repeat(np.arange(n, dtype=np.int64), k), pa.int64()
        )
        return pa.table(
            {
                "bucket": pa.array(
                    probes.reshape(-1).astype(np.int32), pa.int32()
                ),
                id_col: b.column(id_col).cast(pa.int64()).take(row_idx),
                vec_col: b.column(vec_col).take(row_idx),
            }
        )

    probed = ds.map_batches(assign_probes, batch_format="pyarrow")

    cand = probed.groupby("bucket").map_groups(
        pairs_in_bucket, batch_format="pyarrow"
    )
    return _dedup_pair_rows(cand)


def connected_components(
    edges_ds,
    nodes_ds,
    id_col="doc_id",
    a_col="doc_a",
    b_col="doc_b",
    max_iters: int = 25,
    n_join_buckets: int = 32,
):
    """Connected components over an undirected duplicate-pair graph:
    the clustering step after near-dup pair generation.  Every node
    gets ``cluster_id`` = the minimum node id reachable from it, plus
    ``canonical`` (it IS that minimum -- the representative a curation
    pipeline keeps).

    Iterative min-label propagation, Ray-Data-native: per round, labels
    are attached to edge destinations by grouped hash-join co-location
    (one ``map_keyed`` exchange on ``dst`` -- no broadcast of either
    side), the resulting messages union with the current labels,
    and ``groupby(node).min(label)`` folds them.  Convergence is
    detected with a tiny ``sum(label)`` aggregate, which strictly
    decreases until fixpoint (labels only ever shrink).  Rounds needed
    = component diameter; duplicate graphs are overwhelmingly tiny
    star/chain components, so a handful of rounds converge.  Each round
    materializes only the label table (one int64 pair per node) and the
    doubled edge list -- never any text.

    Partitioning assumptions: ``nodes_ds`` must cover every edge
    endpoint (endpoints without a label row receive no messages), and
    one ``n_join_buckets`` slice of nodes+incident edges must fit a
    worker.  Raises if ``max_iters`` rounds do not converge rather than
    returning a partially-propagated clustering.
    """
    from ray.data.aggregate import Min, Sum

    def both_dirs(b: pa.Table) -> pa.Table:
        a = b.column(a_col).cast(pa.int64()).combine_chunks()
        bb = b.column(b_col).cast(pa.int64()).combine_chunks()
        return pa.table(
            {
                "dst": pa.concat_arrays([a, bb]),
                "src": pa.concat_arrays([bb, a]),
            }
        )

    und = edges_ds.map_batches(both_dirs, batch_format="pyarrow")

    def init_labels(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).cast(pa.int64()).combine_chunks()
        return pa.table({"node": ids, "label": ids})

    labels = nodes_ds.map_batches(
        init_labels, batch_format="pyarrow"
    ).materialize()

    def tag_edges(b: pa.Table) -> pa.Table:
        dst = b.column("dst")
        return pa.table(
            {
                "key": dst,
                "src": b.column("src"),
                "label": pa.nulls(b.num_rows, pa.int64()),
            }
        )

    def tag_labels(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": b.column("node"),
                "src": pa.nulls(b.num_rows, pa.int64()),
                "label": b.column("label"),
            }
        )

    # doubled edge list reused every round; materialize once
    tagged_edges = und.map_batches(
        tag_edges, batch_format="pyarrow"
    ).materialize()

    def join_group(tbl: pa.Table) -> pa.Table:
        is_lab = pc.is_valid(tbl.column("label"))
        labs = tbl.filter(is_lab)
        edges = tbl.filter(pc.invert(is_lab))
        idx = pc.index_in(
            edges.column("key"), value_set=labs.column("key").combine_chunks()
        )
        out = pa.table(
            {
                "node": edges.column("src"),
                "label": pc.take(
                    labs.column("label").combine_chunks(), idx
                ),
            }
        )
        return out.filter(pc.is_valid(out.column("label")))

    def checksum(lab_ds) -> int:
        row = lab_ds.aggregate(Sum("label"))
        return row["sum(label)"]

    prev = checksum(labels)
    for _ in range(max_iters):
        messages = map_keyed(
            [
                tagged_edges,
                labels.map_batches(tag_labels, batch_format="pyarrow"),
            ],
            join_group,
            key="key",
            n_buckets=n_join_buckets,
        )
        labels = (
            labels.union(messages)
            .groupby("node")
            .aggregate(Min("label"))
            .rename_columns({"min(label)": "label"})
            .materialize()
        )
        cur = checksum(labels)
        if cur == prev:
            break
        prev = cur
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds"
        )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("node"),
                "cluster_id": b.column("label"),
                "canonical": pc.equal(
                    b.column("node"), b.column("label")
                ),
            }
        )

    return labels.map_batches(finish, batch_format="pyarrow")


def dup_cluster_labels(
    pairs_ds,
    nodes_ds,
    id_col="doc_id",
    a_col="doc_a",
    b_col="doc_b",
    pair_limit: int = 2_000_000,
    **cc_kwargs,
):
    """Size-adaptive duplicate clustering (the same adaptivity as the
    minhash verify step): the dup-pair graph is minuscule next to the
    corpus -- at 100 TB the edge list is O(duplicates found), the node
    table is the corpus.  Below ``pair_limit`` pairs, the edge list is
    collected once, union-found locally (union-by-min with path
    compression), and the node->cluster map is broadcast via
    ``ray.put``; the corpus side then streams through ONE stateless
    ``map_batches`` with a vectorized searchsorted lookup -- no
    per-iteration shuffles.  Above the limit, falls back to the
    distributed label propagation of ``connected_components`` (same
    output, O(diameter) grouped-join rounds).

    Output: one row per node -- ``doc_id``, ``cluster_id`` (min node id
    in its component), ``canonical`` (doc_id == cluster_id).
    """
    # materialize the (small) pair set once: count + iteration would
    # otherwise each re-execute the whole candidate-generation lineage
    pairs = pairs_ds.select_columns([a_col, b_col]).materialize()
    if pairs.count() > pair_limit:
        return connected_components(
            pairs,
            nodes_ds,
            id_col=id_col,
            a_col=a_col,
            b_col=b_col,
            **cc_kwargs,
        )

    import ray

    parent: dict = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != root:
            parent[x], x = root, parent[x]
        return root

    for batch in pairs.iter_batches(batch_format="pyarrow"):
        cols_a = batch.column(a_col).to_pylist()
        cols_b = batch.column(b_col).to_pylist()
        for va, vb in zip(cols_a, cols_b):
            ra, rb = find(int(va)), find(int(vb))
            if ra != rb:
                # union by min: the root IS the component minimum
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo

    keys = np.array(sorted(parent), dtype=np.int64)
    roots = np.array([find(int(k)) for k in keys], dtype=np.int64)
    map_ref = ray.put((keys, roots))

    def assign(b: pa.Table) -> pa.Table:
        k, r = _cached_get(map_ref)
        ids = (
            b.column(id_col)
            .cast(pa.int64())
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
        )
        cluster = ids.copy()
        if len(k):
            idx = np.searchsorted(k, ids)
            idx[idx >= len(k)] = 0
            hit = k[idx] == ids
            cluster[hit] = r[idx[hit]]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "cluster_id": pa.array(cluster, pa.int64()),
                "canonical": pa.array(cluster == ids, pa.bool_()),
            }
        )

    return nodes_ds.map_batches(assign, batch_format="pyarrow")


def conversation_texts(
    src, conv_col="conv_id", order_col="turn_idx", text_col="text",
    n_buckets=64,
):
    """Per-conversation document reassembly: the newline-joined turn
    texts in turn order plus the turn count -- the export shape that
    turns a turn-level transcript table back into one training
    document per conversation (the content twin of
    ``conversation_fingerprints``, which emits only the md5, and run
    through ``map_keyed`` the same way).

    Each call emits one row per conversation.  Output volume equals the
    input text volume, so this is a terminal export stage -- write it,
    don't collect it.
    """
    return map_keyed(
        src,
        lambda t: _text_rows(t, conv_col, order_col, text_col),
        key=conv_col,
        n_buckets=n_buckets,
        columns=[conv_col, order_col, text_col],
    )


def _text_rows(
    tbl: pa.Table, conv_col="conv_id", order_col="turn_idx", text_col="text"
) -> pa.Table:
    """(conv, conv_text, n_turns) rows of a table of whole conversations."""
    convs, joined, n_turns = _conv_joined(tbl, conv_col, order_col, text_col)
    return pa.table(
        {
            conv_col: convs,
            "conv_text": joined,
            "n_turns": pa.array(n_turns, pa.int64()),
        }
    )


def line_dedup(
    ds,
    text_col="text",
    id_col="doc_id",
    min_df: int = 2,
    n_buckets: int = 64,
):
    """Corpus-level duplicate-LINE removal (the C4 / CCNet curation
    step: any non-empty line that appears in ``min_df`` or more
    distinct documents is boilerplate -- navigation chrome, license
    headers, cookie banners -- and is stripped from EVERY document;
    empty lines are structural and never banned).

    Output: one row per input document -- ``doc_id``, ``clean_text``
    (the kept lines re-joined with ``\\n`` in original order; ``""``
    when every line was banned) and ``n_removed`` (lines dropped).

    Plan (two shuffles, both on coarse hash buckets):

    1. explode each batch to (line-bucket, doc, line_idx, line,
       n_lines) rows with one vectorized split; every occurrence of a
       given line string lands in ONE line-hash bucket, so its corpus
       document-frequency is a local bincount there (the ``idf_rarity``
       shape -- no line-keyed groupby, no banned-set broadcast, no
       driver collect).  A sentinel row per document (line_idx = -1)
       guarantees docs whose every line is banned still surface.
    2. inside each line bucket: df per distinct line over distinct
       (line, doc) pairs, drop rows of banned lines, emit survivors
       keyed by a doc bucket; then one doc-bucket groupby reassembles
       each document with the shared vectorized sort + ``binary_join``
       reassembly used by ``conversation_texts``.

    At 100 TB both shuffles move only the text that survives plus
    O(docs) sentinel rows; dispatch is bounded by the bucket count,
    never by line cardinality.  Empty lines and sentinels are bucketed
    by doc id so the (huge) blank-line equivalence class never funnels
    through one worker.
    """

    def explode(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(b.column(text_col).combine_chunks(), "")
        ids = b.column(id_col).combine_chunks().cast(pa.int64())
        lists = pc.split_pattern(texts, pattern="\n")
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        offsets = offsets - offsets[0]
        n_lines = np.diff(offsets)
        row_idx = np.repeat(np.arange(len(texts), dtype=np.int64), n_lines)
        line_idx = np.arange(len(flat), dtype=np.int64) - offsets[row_idx]
        doc_rep = ids.take(pa.array(row_idx, pa.int64()))
        docs_np = doc_rep.to_numpy(zero_copy_only=False)
        # line-hash bucket for non-empty lines (all occurrences of a
        # line in one group); empty lines are never banned, so spread
        # them (and the sentinels) by doc id instead of funneling the
        # blank-line class through a single bucket
        enc = pc.dictionary_encode(flat)
        dict_hash = _str_hash64(enc.dictionary)
        lb = dict_hash[enc.indices.to_numpy(zero_copy_only=False)] % (
            n_buckets
        )
        empty = pc.equal(flat, "").to_numpy(zero_copy_only=False)
        lb = np.where(empty, docs_np % n_buckets, lb).astype(np.int32)
        body = pa.table(
            {
                "lb": pa.array(lb, pa.int32()),
                id_col: doc_rep,
                "line_idx": pa.array(line_idx, pa.int64()),
                "line": flat,
                "n_lines": pa.array(n_lines[row_idx], pa.int64()),
            }
        )
        sentinel = pa.table(
            {
                "lb": pa.array(
                    (
                        ids.to_numpy(zero_copy_only=False) % n_buckets
                    ).astype(np.int32),
                    pa.int32(),
                ),
                id_col: ids,
                "line_idx": pa.array(
                    np.full(len(ids), -1, np.int64), pa.int64()
                ),
                "line": pa.array([""] * len(ids), pa.string()),
                "n_lines": pa.array(n_lines, pa.int64()),
            }
        )
        return pa.concat_tables([body, sentinel])

    def ban_in_bucket(tbl: pa.Table) -> pa.Table:
        lines = tbl.column("line").combine_chunks()
        docs = tbl.column(id_col).to_numpy(zero_copy_only=False)
        li = tbl.column("line_idx").to_numpy(zero_copy_only=False)
        enc = pc.dictionary_encode(lines)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        # df per distinct line over distinct (line, doc) pairs; only
        # real non-empty rows participate (sentinels carry line_idx -1,
        # empty lines are structural)
        real = (li >= 0) & ~pc.equal(
            enc.dictionary, ""
        ).to_numpy(zero_copy_only=False)[codes]
        order = np.lexsort((docs[real], codes[real]))
        c_s, d_s = codes[real][order], docs[real][order]
        first = np.ones(len(c_s), dtype=bool)
        if len(c_s) > 1:
            first[1:] = (c_s[1:] != c_s[:-1]) | (d_s[1:] != d_s[:-1])
        df = np.bincount(
            c_s[first], minlength=len(enc.dictionary)
        ).astype(np.int64)
        banned_row = real & (df[codes] >= min_df)
        keep = ~banned_row
        out = tbl.filter(pa.array(keep)).drop_columns(["lb", "line"])
        kept_lines = lines.filter(pa.array(keep))
        docs_kept = out.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "db": pa.array(
                    (docs_kept % n_buckets).astype(np.int32), pa.int32()
                ),
                id_col: out.column(id_col),
                "line_idx": out.column("line_idx"),
                "line": kept_lines,
                "n_lines": out.column("n_lines"),
            }
        )

    def reassemble(tbl: pa.Table) -> pa.Table:
        li = tbl.column("line_idx").to_numpy(zero_copy_only=False)
        sent = tbl.filter(pa.array(li < 0))
        body = tbl.filter(pa.array(li >= 0))
        doc_ids, joined, n_kept = _conv_joined(
            body, id_col, "line_idx", "line"
        )
        # every doc has exactly one sentinel in this bucket; align
        # n_lines onto the reassembled docs by position, then append
        # the docs whose every line was banned (no kept rows at all)
        all_ids = sent.column(id_col).to_numpy(zero_copy_only=False)
        n_lines = sent.column("n_lines").to_numpy(zero_copy_only=False)
        order = np.argsort(all_ids, kind="stable")
        all_sorted, nl_sorted = all_ids[order], n_lines[order]
        kept_np = doc_ids.to_numpy(zero_copy_only=False)
        pos = np.searchsorted(all_sorted, kept_np)
        with_kept = pa.table(
            {
                id_col: doc_ids,
                "clean_text": joined,
                "n_removed": pa.array(
                    nl_sorted[pos] - n_kept, pa.int64()
                ),
            }
        )
        hit = np.zeros(len(all_sorted), dtype=bool)
        hit[pos] = True
        empty_docs = pa.table(
            {
                id_col: pa.array(all_sorted[~hit], pa.int64()),
                "clean_text": pa.array(
                    [""] * int((~hit).sum()), pa.string()
                ),
                "n_removed": pa.array(nl_sorted[~hit], pa.int64()),
            }
        )
        return pa.concat_tables([with_kept, empty_docs])

    return (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby("lb")
        .map_groups(ban_in_bucket, batch_format="pyarrow")
        .groupby("db")
        .map_groups(reassemble, batch_format="pyarrow")
    )


def _ed_le1(s: str, t: str):
    """Edit distance if <= 1 else None, in O(len) with early exit --
    used only on candidate pairs already co-bucketed by a shared
    deletion signature, so calls are bounded by candidate count."""
    if s == t:
        return 0
    ls, lt = len(s), len(t)
    d = ls - lt
    if d == 0:
        mism = 0
        for a, b in zip(s, t):
            if a != b:
                mism += 1
                if mism > 1:
                    return None
        return 1
    if d == -1:
        s, t, ls, lt = t, s, lt, ls
    elif d != 1:
        return None
    i = 0
    while i < lt and s[i] == t[i]:
        i += 1
    return 1 if s[i + 1:] == t[i:] else None


def _tri_pairs(counts: np.ndarray):
    """Row-index pairs (a < b) inside consecutive segments of the
    given sizes, fully vectorized: for a segment of size m, all
    m*(m-1)/2 intra-segment pairs."""
    counts = counts.astype(np.int64)
    starts = np.cumsum(counts) - counts
    n = int(counts.sum())
    pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
    rep = np.repeat(counts, counts) - 1 - pos  # pairs led by each row
    total = int(rep.sum())
    a = np.repeat(np.arange(n, dtype=np.int64), rep)
    run_starts = np.cumsum(rep) - rep
    b = a + (np.arange(total, dtype=np.int64) - np.repeat(run_starts, rep)) + 1
    return a, b


def fuzzy_pairs_ed1(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = 256,
    max_len: int = 512,
):
    """Edit-distance<=1 fuzzy self-join (FastSS deletion
    neighborhoods): every unordered id pair whose strings are within
    one insertion / deletion / substitution, with the exact distance
    (0 or 1).  The family member between ``exact_dedup`` (distance 0)
    and MinHash (token-level similarity) -- what key-normalization
    and typo-clustering pipelines want.

    Completeness: two strings at edit distance <= 1 always share a
    k=1 deletion signature (substitution: delete the differing
    position on both; indel: the shorter string IS a deletion variant
    of the longer; equality: the identity signature), so candidate
    generation by signature-hash co-bucketing misses nothing.

    Scale shape: signatures are built VECTORIZED -- one Arrow
    slice+concat pass per deletion position (cost max_len passes over
    the column, not per-row Python), hashed batch-at-a-time, deduped
    per (sig, id) in-block -- then one ``map_keyed`` exchange on the
    signature hash groups equal signatures; per-signature candidate
    pairs expand by a vectorized triangular index (``_tri_pairs``) and
    only the bounded candidate set hits the per-pair verifier.
    Cross-bucket duplicate pairs (a pair can share several signatures)
    fold in a second tiny ``distinct_rows`` shuffle that moves verified
    pairs only.  A hot signature (many near-identical strings) is
    inherently quadratic in its group -- same as any ED join's output
    -- so group size is the partitioning assumption to watch; strings
    longer than ``max_len`` raise rather than silently ship max_len**2
    signature bytes.
    """
    big = 1 << 30

    def signatures(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).combine_chunks().cast(pa.int64())
        texts = pc.fill_null(b.column(text_col).combine_chunks(), "")
        lens = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
        if len(lens) and lens.max() > max_len:
            raise ValueError(
                f"fuzzy_pairs_ed1: string longer than max_len={max_len}"
            )
        sig_chunks = [texts]  # identity signature
        id_np = ids.to_numpy(zero_copy_only=False)
        id_chunks = [id_np]
        txt_chunks = [texts]
        lmax = int(lens.max()) if len(lens) else 0
        for i in range(lmax):
            sel = np.flatnonzero(lens > i)
            if not len(sel):
                continue
            sub = texts.take(pa.array(sel, pa.int64()))
            var = pc.binary_join_element_wise(
                pc.utf8_slice_codeunits(sub, 0, i),
                pc.utf8_slice_codeunits(sub, i + 1, big),
                "",
            )
            sig_chunks.append(var)
            id_chunks.append(id_np[sel])
            txt_chunks.append(sub)
        sigs = pa.concat_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
             for c in sig_chunks]
        )
        sh = _str_hash64(sigs)
        out = pa.table(
            {
                "sh": pa.array(sh, pa.int64()),
                id_col: pa.array(np.concatenate(id_chunks), pa.int64()),
                text_col: pa.concat_arrays(
                    [c.combine_chunks() if isinstance(c, pa.ChunkedArray)
                     else c for c in txt_chunks]
                ),
            }
        )
        # one row per (signature, id): "aa" yields "a" twice
        return out.group_by(["sh", id_col, text_col]).aggregate([])

    def pairs_in_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by([("sh", "ascending"), (id_col, "ascending")])
        sh = tbl.column("sh").to_numpy(zero_copy_only=False)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        texts_arr = tbl.column(text_col).combine_chunks()
        n = len(sh)
        out_a, out_b, out_d = [], [], []
        if n:
            first = np.ones(n, dtype=bool)
            first[1:] = sh[1:] != sh[:-1]
            counts = np.diff(
                np.append(np.flatnonzero(first), n)
            ).astype(np.int64)
            a, b = _tri_pairs(counts)
            keep = ids[a] != ids[b]
            a, b = a[keep], b[keep]
            # only CANDIDATE rows cross into Python for the verifier
            ta = texts_arr.take(pa.array(a, pa.int64())).to_pylist()
            tb = texts_arr.take(pa.array(b, pa.int64())).to_pylist()
            for ai, bi, sa, sb in zip(ids[a], ids[b], ta, tb):
                dist = _ed_le1(sa, sb)
                if dist is not None:
                    ia, ib = int(ai), int(bi)
                    if ia > ib:
                        ia, ib = ib, ia
                    out_a.append(ia)
                    out_b.append(ib)
                    out_d.append(dist)
        return pa.table(
            {
                "id_a": pa.array(out_a, pa.int64()),
                "id_b": pa.array(out_b, pa.int64()),
                "dist": pa.array(out_d, pa.int64()),
            }
        )

    cand = map_keyed(
        ds.map_batches(signatures, batch_format="pyarrow"),
        pairs_in_bucket,
        key="sh",
        n_buckets=n_buckets,
    )
    return distinct_rows(cand, ["id_a", "id_b"], n_buckets=64)


def exact_dedup_priority(
    ds,
    priority: tuple,
    source_col: str = "source",
    text_col: str = "text",
    id_col: str = "doc_id",
    n_shuffle_buckets: int = 256,
):
    """Cross-source exact dedup: keep, per identical text, the copy
    from the highest-priority source -- the "prefer the curated copy
    over the crawled one" rule every multi-source corpus merge needs.
    A source's rank is its index in ``priority`` (earlier = better);
    sources not listed rank after all listed ones, ties break on the
    minimum id.

    Same plan as ``exact_dedup`` (one exchange on the 64-bit text
    hash, collision-safe in-call text equality); the winner rule is
    one lexsort over (text, rank, id) per call, with the source->rank
    map applied per DISTINCT source value (dictionary encode), never
    per row.
    """
    rank_of = {s: i for i, s in enumerate(priority)}
    unk = len(priority)

    def keep_best(tbl: pa.Table) -> pa.Table:
        texts = pc.dictionary_encode(tbl.column(text_col).combine_chunks())
        codes = texts.indices.to_numpy(zero_copy_only=False)
        src = pc.dictionary_encode(tbl.column(source_col).combine_chunks())
        dict_ranks = np.array(
            [rank_of.get(s, unk) for s in src.dictionary.to_pylist()],
            np.int64,
        )
        ranks = dict_ranks[src.indices.to_numpy(zero_copy_only=False)]
        ids = (
            tbl.column(id_col)
            .combine_chunks()
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        order = np.lexsort((ids, ranks, codes))
        first = np.concatenate(
            [[True], codes[order][1:] != codes[order][:-1]]
        )
        return tbl.take(pa.array(np.sort(order[first]), pa.int64()))

    return _by_text_hash(ds, keep_best, text_col, n_shuffle_buckets)


def setsim_join(
    ds,
    threshold: float,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
    n_df_buckets: int = 64,
    n_pair_buckets: int = 256,
    max_broadcast_shingles: int = 8_000_000,
    broadcast_pair_limit: int = 2_000_000,
    max_broadcast_text_bytes: int = 1 << 30,
):
    """Exact threshold set-similarity self-join (prefix filtering, the
    PPJoin family): every unordered id pair whose k-token shingle sets
    have Jaccard >= ``threshold``, with the exact intersection / union
    sizes -- the deterministic complement of MinHash+LSH
    (``minhash_near_dups`` trades exactness for fewer passes; this
    operator guarantees EVERY qualifying pair, no banding floor, no
    probabilistic recall argument).

    Completeness (the prefix-filter theorem): under ANY global total
    order on shingles, two sets r, s with J(r,s) >= t must overlap
    within their first ``|x| - ceil(t*|x|) + 1`` shingles, so candidate
    generation from prefix shingles alone misses nothing.  The order
    used is (document frequency, shingle-hash, shingle) ascending --
    rarest first, which minimizes candidate-group sizes; the string
    tie-break makes the order total even under a 63-bit hash collision,
    and ``ceil`` is evaluated in exact rational arithmetic
    (``Fraction(str(threshold))``) so a float rounding can never
    shorten a prefix.

    Size-adaptive plan (the broadcast-vs-shuffle choice a planner
    makes, same contract as ``minhash_near_dups``):

    * The DF table's row bound is METADATA-counted from the
      materialized per-block partials; within
      ``max_broadcast_shingles`` the (hash -> df) arrays fold on the
      driver (vectorized bincount, bounded by the count just taken)
      and broadcast once via ``ray.put``, and -- because the explode
      emits each document's rows contiguously inside its own output
      table -- the prefix cut happens IN-BLOCK with zero shuffles;
      candidate-pair expansion (one bucket shuffle) plus the
      ``distinct_rows`` fold are then the only wide steps, and the
      bounded pair set verifies against broadcast texts
      (``_verify_broadcast``'s shape, emitting exact inter/union).
    * Above the caps nothing is ever collected: DF becomes a
      partial+final bucket groupby, attaches by a co-partitioned
      ``hash_join``, prefixes cut inside doc-hash bucket groups, and
      texts attach through the two grouped joins -- the corpus-scale
      path, one extra shuffle per step but O(1) driver memory.

    A hot shingle (boilerplate shared by millions of docs) makes its
    candidate group quadratic -- the inherent output bound of any
    similarity join; DF-ascending ordering is exactly the mitigation
    (boilerplate sorts LAST and rarely enters a prefix).  Documents
    with zero tokens emit nothing and can never pair (mirrors the SQL
    formulation, which requires a shared shingle).
    """
    from fractions import Fraction

    import ray as _ray

    from .textan import _ngram_tape, _token_tape

    frac = Fraction(str(threshold))
    t_num, t_den = frac.numerator, frac.denominator
    thr = float(threshold)

    def explode(b: pa.Table) -> pa.Table:
        """Distinct (shingle-hash, shingle, doc, set-size) rows; each
        document's rows stay contiguous inside the output table (the
        in-block prefix cut of the fast path depends on this)."""
        ids = (
            b.column(id_col)
            .combine_chunks()
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        texts = pc.fill_null(b.column(text_col).combine_chunks(), "")
        doc_idx, grams = _ngram_tape(texts, k)
        parts_i = [ids[doc_idx]]
        parts_s = [grams]
        # docs with 0 < n_tokens < k contribute their whole-doc join
        # (the _shingles short-doc rule)
        flat, counts, new_off = _token_tape(texts)
        short = np.flatnonzero((counts > 0) & (counts < k))
        if len(short):
            starts = new_off[short]
            ends = new_off[short + 1]
            idx = np.concatenate(
                [np.arange(s, e) for s, e in zip(starts, ends)]
            )
            lens = (ends - starts).astype(np.int32)
            offs = np.concatenate([[0], np.cumsum(lens)]).astype(
                np.int32
            )
            la = pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()),
                flat.take(pa.array(idx, pa.int64())),
            )
            parts_i.append(ids[short])
            parts_s.append(pc.binary_join(la, " "))
        tbl = pa.table(
            {
                id_col: pa.array(
                    np.concatenate(parts_i), pa.int64()
                ),
                "shingle": pa.concat_arrays(
                    [
                        p.combine_chunks()
                        if isinstance(p, pa.ChunkedArray)
                        else p
                        for p in parts_s
                    ]
                ),
            }
        )
        d = tbl.group_by([id_col, "shingle"]).aggregate([])
        sz = d.group_by(id_col).aggregate([([], "count_all")])
        pos = pc.index_in(
            d.column(id_col), value_set=sz.column(id_col)
        )
        size = pc.take(sz.column("count_all"), pos)
        sh = _str_hash64(d.column("shingle"))
        return pa.table(
            {
                "sh_hash": pa.array(sh, pa.int64()),
                "shingle": d.column("shingle"),
                id_col: d.column(id_col),
                "set_size": size.cast(pa.int64()),
            }
        )

    def _prefix_rows(tbl: pa.Table) -> pa.Table:
        """(sh_hash, doc) prefix rows from rows carrying df; sorts by
        (doc, df, hash, shingle) and cuts each doc's exact-rational
        prefix."""
        tbl = tbl.sort_by(
            [
                (id_col, "ascending"),
                ("df", "ascending"),
                ("sh_hash", "ascending"),
                ("shingle", "ascending"),
            ]
        )
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        size = tbl.column("set_size").to_numpy(zero_copy_only=False)
        n = len(ids)
        if not n:
            return pa.table(
                {
                    "sh_hash": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                }
            )
        first = np.ones(n, dtype=bool)
        first[1:] = ids[1:] != ids[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.r_[starts, n])
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        o_min = -((-t_num * size) // t_den)  # exact ceil(t * size)
        keep = pos < (size - o_min + 1)
        return pa.table(
            {
                "sh_hash": tbl.column("sh_hash").filter(
                    pa.array(keep)
                ),
                id_col: tbl.column(id_col).filter(pa.array(keep)),
            }
        )

    def df_partial(b: pa.Table) -> pa.Table:
        g = b.select(["sh_hash"]).group_by("sh_hash").aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "sh_hash": g.column("sh_hash"),
                "df_p": g.column("count_all").cast(pa.int64()),
            }
        )

    # ---- DF bound: materialized per-block partials, metadata count
    dfp = ds.map_batches(
        lambda b: df_partial(explode(b)), batch_format="pyarrow"
    ).materialize()
    df_bound = dfp.count()

    if df_bound <= max_broadcast_shingles:
        # ---------------- broadcast fast path ----------------
        hs, cs = [], []
        for b in dfp.iter_batches(
            batch_format="pyarrow", batch_size=None
        ):
            hs.append(
                b.column("sh_hash").to_numpy(zero_copy_only=False)
            )
            cs.append(b.column("df_p").to_numpy(zero_copy_only=False))
        h_all = (
            np.concatenate(hs) if hs else np.zeros(0, np.int64)
        )
        c_all = (
            np.concatenate(cs) if cs else np.zeros(0, np.int64)
        )
        uniq, inv = np.unique(h_all, return_inverse=True)
        dfv = np.bincount(
            inv, weights=c_all.astype(np.float64)
        ).astype(np.int64)
        df_ref = _ray.put((uniq, dfv))

        def prefix_block(b: pa.Table) -> pa.Table:
            rows = explode(b)
            h, d = _cached_get(df_ref)
            sh = rows.column("sh_hash").to_numpy(
                zero_copy_only=False
            )
            dfc = (
                d[np.searchsorted(h, sh)]
                if len(sh)
                else np.zeros(0, np.int64)
            )
            rows = rows.append_column(
                "df", pa.array(dfc, pa.int64())
            )
            return _prefix_rows(rows)

        prefixes = ds.map_batches(
            prefix_block, batch_format="pyarrow"
        )
    else:
        # ---------------- corpus-scale join path ----------------
        from .relational import hash_join

        def df_final(tbl: pa.Table) -> pa.Table:
            g = tbl.group_by("sh_hash").aggregate([("df_p", "sum")])
            return pa.table(
                {
                    "sh_hash": g.column("sh_hash"),
                    "df": g.column("df_p_sum").cast(pa.int64()),
                }
            )

        df_tbl = map_keyed(
            dfp, df_final, key="sh_hash", n_buckets=n_df_buckets
        )
        rows = ds.map_batches(explode, batch_format="pyarrow")
        joined = hash_join(
            rows,
            df_tbl,
            on="sh_hash",
            n_buckets=n_df_buckets,
            left_schema=pa.schema(
                [
                    ("sh_hash", pa.int64()),
                    ("shingle", pa.string()),
                    (id_col, pa.int64()),
                    ("set_size", pa.int64()),
                ]
            ),
            right_schema=pa.schema(
                [("sh_hash", pa.int64()), ("df", pa.int64())]
            ),
        )

        prefixes = map_keyed(
            joined, _prefix_rows, key=id_col, n_buckets=n_df_buckets
        )

    def pairs_in_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [("sh_hash", "ascending"), (id_col, "ascending")]
        )
        sh = tbl.column("sh_hash").to_numpy(zero_copy_only=False)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        n = len(sh)
        if not n:
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                }
            )
        first = np.ones(n, dtype=bool)
        first[1:] = sh[1:] != sh[:-1]
        counts = np.diff(
            np.append(np.flatnonzero(first), n)
        ).astype(np.int64)
        a, b = _tri_pairs(counts)
        # ids ascend within each group, so a < b positionally => by id
        return pa.table(
            {
                "doc_a": pa.array(ids[a], pa.int64()),
                "doc_b": pa.array(ids[b], pa.int64()),
            }
        )

    cand = map_keyed(
        prefixes, pairs_in_bucket, key="sh_hash", n_buckets=n_pair_buckets
    )
    cand = distinct_rows(
        cand, ["doc_a", "doc_b"], n_buckets=64
    ).materialize()

    def _verify_tbl(batch: pa.Table, tx) -> pa.Table:
        a = batch.column("doc_a").to_pylist()
        b = batch.column("doc_b").to_pylist()
        oa, ob, oi, ou, oj = [], [], [], [], []
        for ai, bi in zip(a, b):
            sa = _shingles(tx[ai] or "", k)
            sb = _shingles(tx[bi] or "", k)
            inter = len(sa & sb)
            union = len(sa) + len(sb) - inter
            if union == 0:
                continue
            j = inter / union
            if j >= thr:
                oa.append(ai)
                ob.append(bi)
                oi.append(inter)
                ou.append(union)
                oj.append(j)
        return pa.table(
            {
                "doc_a": pa.array(oa, pa.int64()),
                "doc_b": pa.array(ob, pa.int64()),
                "n_inter": pa.array(oi, pa.int64()),
                "n_union": pa.array(ou, pa.int64()),
                "jaccard": pa.array(oj, pa.float64()),
            }
        )

    if cand.count() <= broadcast_pair_limit:
        # texts of candidate docs only: filtered narrow scan,
        # broadcast once (the _verify_broadcast shape).  The filtered
        # set is materialized and metadata-byte-counted first -- the
        # pair cap bounds how many docs are fetched, not how large
        # each is; over-budget falls through to the join verify.
        wanted = set()
        for b in cand.iter_batches(
            batch_format="pyarrow", batch_size=None
        ):
            wanted.update(b.column("doc_a").to_pylist())
            wanted.update(b.column("doc_b").to_pylist())
        wanted_ref = _ray.put(wanted)

        def keep_wanted(b: pa.Table) -> pa.Table:
            w = _cached_get(wanted_ref)
            ids_np = b.column(id_col).to_pylist()
            mask = pa.array([i in w for i in ids_np], pa.bool_())
            return b.select([id_col, text_col]).filter(mask)

        filt = ds.map_batches(
            keep_wanted, batch_format="pyarrow"
        ).materialize()
        if (filt.size_bytes() or 0) <= max_broadcast_text_bytes:
            texts = {}
            for b in filt.iter_batches(
                batch_format="pyarrow", batch_size=None
            ):
                texts.update(
                    zip(
                        b.column(id_col).to_pylist(),
                        b.column(text_col).to_pylist(),
                    )
                )
            texts_ref = _ray.put(texts)

            def verify_b(batch: pa.Table) -> pa.Table:
                return _verify_tbl(batch, _cached_get(texts_ref))

            return cand.map_batches(
                verify_b, batch_format="pyarrow", batch_size=4096
            )

    # corpus-scale verify: texts attach through two grouped joins
    with_a = _attach_text(
        cand, ds, "doc_a", "doc_b", None, text_col, id_col, "text_a"
    )
    with_both = _attach_text(
        with_a, ds, "doc_b", "doc_a", "text_a", text_col, id_col,
        "text_b",
    )

    def verify_j(batch: pa.Table) -> pa.Table:
        tx = {}
        tx.update(
            zip(
                batch.column("doc_a").to_pylist(),
                batch.column("text_a").to_pylist(),
            )
        )
        tx.update(
            zip(
                batch.column("doc_b").to_pylist(),
                batch.column("text_b").to_pylist(),
            )
        )
        return _verify_tbl(batch, tx)

    return with_both.map_batches(verify_j, batch_format="pyarrow")
