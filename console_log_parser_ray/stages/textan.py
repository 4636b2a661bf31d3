"""Text analysis operators over document tables.

Vectorized (pyarrow.compute / numpy) per-batch transforms: token
counting, quality scoring, language identification (stopword n-gram
heuristic), and rolling-hash document fingerprinting.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.cache import map_keyed

_TOKEN_RE = r"\S+"
# RE2's ASCII \s class, exactly ([\t\n\f\r ] -- no \v, no Unicode
# whitespace): the ONE tokenization every SQL-oracled text operator
# shares, so engine and DuckDB oracle agree on any corpus, not just
# ASCII-whitespace ones.
_RE2_WS = re.compile(r"[\t\n\f\r ]+")


def ascii_tokens(text: str) -> list:
    """Tokens under the RE2 ``\\S+`` rule (what DuckDB's
    ``regexp_extract_all(text, '\\S+')`` returns)."""
    return [t for t in _RE2_WS.split(text) if t]
# A BPE-ish subword proxy: word pieces, numbers, punctuation runs
_BPE_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"

_STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "for", "on"},
    "es": {"el", "la", "de", "y", "en", "que", "los", "un", "por", "con"},
    "de": {"der", "die", "das", "und", "in", "zu", "den", "mit", "von", "ist"},
    "fr": {"le", "la", "de", "et", "les", "des", "en", "un", "du", "une"},
    "zh": {"的", "了", "是", "在", "我", "有", "和", "就", "不", "人"},
}


def token_stats(ds, text_col="text", id_col="doc_id"):
    """Adds n_tokens (whitespace), n_pieces (BPE-ish), n_chars."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(texts, _TOKEN_RE), pa.int64()
                ),
                "n_pieces": pc.cast(
                    pc.count_substring_regex(texts, _BPE_RE), pa.int64()
                ),
                "n_chars": pc.cast(pc.utf8_length(texts), pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


# PII-ish scrub rules: user@host / email shapes, dotted-quad addresses.
# RE2 syntax on both sides (pyarrow.compute and DuckDB share the
# dialect), so the SQL oracle can state the identical patterns.
DEFAULT_REDACT_RULES = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+", "<USER@HOST>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
)


def rep_signals(ds, text_col="text", id_col="doc_id"):
    """Repetition / boilerplate signals per document -- the standard
    pre-training quality gates on line-level repetition (a la the
    Gopher/MassiveText rules): over the document's NON-EMPTY
    newline-split lines,

    - ``n_lines``: how many there are,
    - ``dup_line_frac``: ``(n_lines - distinct_lines) / n_lines``,
    - ``top_line_frac``: occurrences of the most frequent line over
      ``n_lines``;

    both fractions are 0.0 for documents with no non-empty line.  All
    counts are exact-integer and the divisions run in float64, so the
    DuckDB oracle (same split, same filters) matches bit-for-bit.

    Scale shape: a stateless ``map_batches`` -- no shuffle; the line
    explosion lives only inside one batch (Arrow split + C-level
    pandas groupby), never in the object store.
    """
    import numpy as np
    import pandas as pd

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64())
        lines = pc.split_pattern(batch.column(text_col), pattern="\n")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        flat = lines.flatten()
        # row index for every exploded line, from the list offsets
        counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        row_idx = np.repeat(np.arange(len(batch)), counts)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "i": row_idx[keep],
                "line": flat.to_pandas().to_numpy()[keep],
            }
        )
        n_lines = np.zeros(len(batch), dtype=np.int64)
        n_distinct = np.zeros(len(batch), dtype=np.int64)
        top = np.zeros(len(batch), dtype=np.int64)
        if len(df):
            per_line = df.groupby(["i", "line"], sort=False).size()
            by_doc = per_line.groupby(level="i")
            agg = pd.DataFrame(
                {
                    "n": by_doc.sum(),
                    "d": by_doc.size(),
                    "t": by_doc.max(),
                }
            )
            ii = agg.index.to_numpy()
            n_lines[ii] = agg["n"].to_numpy()
            n_distinct[ii] = agg["d"].to_numpy()
            top[ii] = agg["t"].to_numpy()
        denom = np.where(n_lines > 0, n_lines, 1).astype(np.float64)
        return pa.table(
            {
                id_col: ids,
                "n_lines": pa.array(n_lines, pa.int64()),
                "dup_line_frac": pa.array(
                    (n_lines - n_distinct) / denom, pa.float64()
                ),
                "top_line_frac": pa.array(top / denom, pa.float64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def ngram_rep_signals(ds, ns=(2, 3, 4), text_col="text", id_col="doc_id"):
    """Gopher/MassiveText-style n-gram repetition signals per document
    -- the token-n-gram twin of ``rep_signals``.  For each ``n`` in
    ``ns``, over the document's whitespace tokens:

    - ``n_grams_{n}``: number of (overlapping) n-gram occurrences,
    - ``dup_{n}gram_frac``: ``(occurrences - distinct) / occurrences``,
    - ``top_{n}gram_frac``: count of the most frequent n-gram over
      occurrences;

    fractions are 0.0 for documents with fewer than ``n`` tokens.
    Counts are exact integers and each fraction is ONE float64
    division of integers, so the DuckDB oracle matches bit-for-bit.

    Scale shape: a stateless ``map_batches`` -- the gram explode
    (vectorized ``_ngram_tape``: one strided gather + one
    ``binary_join``) and the per-doc counting live inside one batch;
    no shuffle, nothing leaves the task but one row per document.
    """
    import pandas as pd

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64())
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        cols = {id_col: ids}
        for n in ns:
            doc_idx, grams = _ngram_tape(texts, n)
            total = np.zeros(len(batch), dtype=np.int64)
            distinct = np.zeros(len(batch), dtype=np.int64)
            top = np.zeros(len(batch), dtype=np.int64)
            if len(doc_idx):
                per = (
                    pd.DataFrame(
                        {"i": doc_idx, "g": grams.to_pandas().to_numpy()}
                    )
                    .groupby(["i", "g"], sort=False)
                    .size()
                )
                by_doc = per.groupby(level="i")
                agg = pd.DataFrame(
                    {
                        "n": by_doc.sum(),
                        "d": by_doc.size(),
                        "t": by_doc.max(),
                    }
                )
                ii = agg.index.to_numpy()
                total[ii] = agg["n"].to_numpy()
                distinct[ii] = agg["d"].to_numpy()
                top[ii] = agg["t"].to_numpy()
            denom = np.where(total > 0, total, 1).astype(np.float64)
            cols[f"n_grams_{n}"] = pa.array(total, pa.int64())
            cols[f"dup_{n}gram_frac"] = pa.array(
                (total - distinct) / denom, pa.float64()
            )
            cols[f"top_{n}gram_frac"] = pa.array(top / denom, pa.float64())
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def grok_extract(
    ds,
    pattern: str,
    col: str = "text",
    keep_cols: tuple = ("conv_id", "turn_idx"),
    casts: dict | None = None,
    drop_unmatched: bool = False,
):
    """Grok-style regex parse: every named group in ``pattern``
    becomes an output column, typed via ``casts`` (group name -> Arrow
    type) -- the generic schema-on-read ETL step the north-star
    describes (``map_batches over Arrow byte columns extracts control
    sequences, prompts, commands``), reusable beyond the transcript
    FSM for any line-structured log.

    One vectorized RE2 ``pc.extract_regex`` kernel per batch (first
    match per row, the regexp_extract SQL convention); rows that do
    not match keep null group columns unless ``drop_unmatched``.
    Stateless map: no shuffle, fuses into the read, scales with the
    scan.  DuckDB runs the same RE2 syntax, so oracles mirror
    group-for-group (CASE WHEN regexp_matches THEN regexp_extract END
    reproduces the null-vs-empty-group semantics exactly).
    """

    def fn(b: pa.Table) -> pa.Table:
        s = pc.fill_null(b.column(col).combine_chunks(), "")
        ext = pc.extract_regex(s, pattern=pattern)
        cols = {c: b.column(c) for c in keep_cols}
        for field in ext.type:
            v = pc.struct_field(ext, field.name)
            if casts and field.name in casts:
                v = pc.cast(v, casts[field.name])
            cols[field.name] = v
        t = pa.table(cols)
        if drop_unmatched:
            t = t.filter(pc.is_valid(ext))
        return t

    return ds.map_batches(fn, batch_format="pyarrow")


def grok_dispatch(
    ds,
    patterns: list,
    col: str = "text",
    keep_cols: tuple = ("conv_id", "turn_idx"),
    casts: dict | None = None,
    tag_col: str = "grok_tag",
):
    """Ordered multi-pattern grok: ``patterns`` is a list of
    ``(tag, pattern)`` pairs tried in order; the FIRST matching
    pattern tags the row (``tag_col``) and fills its named groups,
    later patterns never override -- the classic grok fallback chain
    (one message format per source dialect).  Group names may repeat
    across patterns (same semantic field from different dialects);
    the output carries the UNION of all group names, null where the
    winning pattern lacks the group or no pattern matches.

    Vectorized: one RE2 ``pc.extract_regex`` per pattern per batch,
    merged by precedence with ``pc.if_else`` -- no row loop, no
    shuffle, fuses into the read.  DuckDB mirrors it with a CASE
    chain over ``regexp_matches`` (same RE2 engine).
    """
    # union of group names, first-seen order (stable output schema)
    names: list = []
    for _, pat in patterns:
        for g in re.findall(r"\(\?P<([A-Za-z_][A-Za-z0-9_]*)>", pat):
            if g not in names:
                names.append(g)

    def fn(b: pa.Table) -> pa.Table:
        s = pc.fill_null(b.column(col).combine_chunks(), "")
        n = len(s)
        tag = pa.nulls(n, pa.string())
        vals = {g: pa.nulls(n, pa.string()) for g in names}
        claimed = pa.array(np.zeros(n, dtype=bool))
        for t, pat in patterns:
            ext = pc.extract_regex(s, pattern=pat)
            win = pc.and_(pc.is_valid(ext), pc.invert(claimed))
            claimed = pc.or_(claimed, win)
            tag = pc.if_else(win, pa.scalar(t, pa.string()), tag)
            for field in ext.type:
                vals[field.name] = pc.if_else(
                    win, pc.struct_field(ext, field.name),
                    vals[field.name],
                )
        cols = {c: b.column(c) for c in keep_cols}
        cols[tag_col] = tag
        for g in names:
            v = vals[g]
            if casts and g in casts:
                v = pc.cast(v, casts[g])
            cols[g] = v
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def redact(ds, rules=DEFAULT_REDACT_RULES, text_col="text", out_col="redacted"):
    """Regex scrubbing (PII-style redaction) -- a vectorized
    replace_substring_regex chain per batch, rules applied in order."""

    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        for pat, repl in rules:
            col = pc.replace_substring_regex(
                col, pattern=pat, replacement=repl
            )
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return batch.append_column(out_col, col)

    return ds.map_batches(fn, batch_format="pyarrow")


def normalize_text(ds, text_col="text", out_col="norm"):
    """Training-data text normalization: lowercase, collapse ASCII
    blank runs to one space, trim leading/trailing whitespace.  All
    three steps are RE2/utf8 kernels with exact DuckDB mirrors."""

    def fn(batch: pa.Table) -> pa.Table:
        col = pc.utf8_lower(batch.column(text_col))
        col = pc.replace_substring_regex(
            col, pattern="[\t ]+", replacement=" "
        )
        col = pc.replace_substring_regex(
            col, pattern="^[\t\n ]+|[\t\n ]+$", replacement=""
        )
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return batch.append_column(out_col, col)

    return ds.map_batches(fn, batch_format="pyarrow")


def _doc_ngrams(text: str, n: int) -> list:
    toks = ascii_tokens(text)
    return [
        " ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)
    ]


def _token_tape(texts: pa.Array):
    """Vectorized batch tokenization: ONE RE2 split for the whole
    batch, empty tokens filtered on the flat tape.  Returns
    ``(flat, counts, new_off)`` -- the token tape as an Arrow string
    array (never Python objects), the per-document token count, and
    each document's start offset into the tape (len = n_docs + 1).
    The shared front half of every n-gram/window operator; no per-row
    Python loop anywhere."""
    lists = pc.split_pattern_regex(texts, pattern=r"\s+")
    flat_arr = lists.flatten()
    offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = offsets - offsets[0]
    keep = pc.not_equal(flat_arr, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    flat = flat_arr.filter(keep)
    counts = np.add.reduceat(
        np.concatenate([keep_np.astype(np.int64), [0]]),
        offsets[:-1],
    ) if len(texts) else np.zeros(0, dtype=np.int64)
    counts = np.where(np.diff(offsets) == 0, 0, counts)
    new_off = np.concatenate([[0], np.cumsum(counts)])
    return flat, counts, new_off


def _ngram_tape(texts: pa.Array, n: int):
    """Vectorized (doc_idx, n-gram string) explode over a batch of
    texts: token tape + one strided gather + a single
    ``pc.binary_join`` builds every gram of every document at once
    (one allocation per gram -- the object-array concat chain pays
    n-1 intermediate strings per gram and loses to it).  Returns
    ``(doc_idx, grams)`` -- int64 numpy / pyarrow string array;
    documents with < n tokens emit nothing."""
    flat, counts, new_off = _token_tape(texts)
    n_grams = np.maximum(counts - (n - 1), 0)
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), n_grams)
    total = int(n_grams.sum())
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(n_grams)])[:-1], n_grams
    )
    starts = new_off[doc_idx] + within
    if not total:
        return doc_idx, pa.array([], pa.string())
    # positions of every gram's tokens, row-major: gram g covers
    # flat[starts[g] .. starts[g]+n)
    pos = (starts[:, None] + np.arange(n, dtype=np.int64)).reshape(-1)
    gathered = flat.take(pa.array(pos, pa.int64()))
    lists = pa.ListArray.from_arrays(
        pa.array(np.arange(0, (total + 1) * n, n, dtype=np.int32), pa.int32()),
        gathered,
    )
    return doc_idx, pc.binary_join(lists, " ")


def chunk_documents(
    ds,
    size: int = 32,
    overlap: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Context-window chunking: split each document into overlapping
    fixed-size token windows -- the standard pre-training / RAG
    preparation step for documents longer than the model context.

    Rule (stated so SQL can mirror it): tokens under the shared RE2
    ``\\S+`` tokenization; window ``i`` covers tokens
    ``[i*step, i*step+size)`` with ``step = size - overlap``, for every
    ``i`` with ``i*step < n_tokens``; the chunk text re-joins its
    tokens with single spaces.  Zero-token documents emit no chunks.

    Scale shape: stateless per-batch flat reshape (one doc in, ~n/step
    rows out), no shuffle, no state, no per-row Python: one RE2 split
    builds the batch token tape, window starts/widths come from
    offset arithmetic, tokens are gathered once, and every chunk text
    is built by a single vectorized ``pc.binary_join`` over a
    ListArray view of the gather.  Output rows carry
    ``(doc_id, chunk_idx, n_chunk_tokens, chunk_text)``.
    """

    if not 0 <= overlap < size:
        raise ValueError("chunk_documents: need 0 <= overlap < size")
    step = size - overlap

    def fn(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        ids = batch.column(id_col).combine_chunks().cast(pa.int64())
        flat, counts, new_off = _token_tape(texts)
        n_chunks = -(-counts // step) * (counts > 0)  # ceil, 0 if empty
        doc_idx = np.repeat(
            np.arange(len(counts), dtype=np.int64), n_chunks
        )
        total = int(n_chunks.sum())
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(n_chunks)])[:-1], n_chunks
        )
        starts = new_off[doc_idx] + within * step
        widths = np.minimum(size, counts[doc_idx] - within * step)
        # gather every chunk's tokens into one contiguous tape, then
        # join each chunk in a single C kernel
        g_off = np.concatenate([[0], np.cumsum(widths)])
        pos = (
            np.arange(int(g_off[-1]), dtype=np.int64)
            - np.repeat(g_off[:-1], widths)
            + np.repeat(starts, widths)
        )
        gathered = flat.take(pa.array(pos, pa.int64()))
        chunk_lists = pa.ListArray.from_arrays(
            pa.array(g_off, pa.int32()), gathered
        )
        chunk_text = pc.binary_join(chunk_lists, " ")
        return pa.table(
            {
                id_col: pc.take(ids, pa.array(doc_idx, pa.int64())),
                "chunk_idx": pa.array(within, pa.int64()),
                "n_chunk_tokens": pa.array(widths, pa.int64()),
                "chunk_text": chunk_text,
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def decontaminate(
    ds,
    bench_ds,
    n: int = 5,
    text_col="text",
    id_col="doc_id",
    max_bench_ngrams: int = 5_000_000,
):
    """Benchmark decontamination: flag corpus documents that share any
    token ``n``-gram with a benchmark/eval corpus (the standard
    training-data leakage gate, a la the GPT-3 13-gram rule).

    Scale shape: the benchmark side is SMALL by construction (eval sets
    are megabytes even when the corpus is 100 TB), so its distinct
    n-grams are reduced per block, collected once on the driver,
    ``ray.put`` once, and every corpus batch runs one vectorized
    ``pc.is_in`` membership test against the shared array -- no
    shuffle, no join, the corpus streams through a single stateless
    map.  ``max_bench_ngrams`` guards the broadcast-side assumption.
    Per-doc distinct-hit counting touches only the (rare) matching
    positions.  Tokenization is the shared RE2 ``\\S+`` rule, so the
    DuckDB oracle computes the identical set arithmetic.
    """
    import ray

    from .dedup import _cached_get

    def bench_partial(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        _, grams = _ngram_tape(texts, n)
        return pa.table({"ngram": pc.unique(grams).sort()})

    grams: set = set()
    for tbl in bench_ds.map_batches(
        bench_partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        grams.update(tbl.column("ngram").to_pylist())
        if len(grams) > max_bench_ngrams:
            raise ValueError(
                "benchmark n-gram set exceeds max_bench_ngrams="
                f"{max_bench_ngrams}; decontaminate broadcasts the "
                "benchmark side and requires it to be small"
            )
    bench_ref = ray.put(pa.array(sorted(grams), pa.string()))

    def fn(batch: pa.Table) -> pa.Table:
        bench_arr = _cached_get(bench_ref)
        ids = batch.column(id_col).cast(pa.int64())
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        doc_idx, grams = _ngram_tape(texts, n)
        n_hits = np.zeros(batch.num_rows, dtype=np.int64)
        if len(grams):
            mask = pc.is_in(grams, value_set=bench_arr).to_numpy(
                zero_copy_only=False
            )
            hit = np.flatnonzero(mask)
            if len(hit):
                # distinct (doc, gram) hits: only matching positions
                # reach the (tiny) dedup group_by
                hit_pa = pa.array(hit, pa.int64())
                d = (
                    pa.table(
                        {
                            "i": pa.array(doc_idx[hit], pa.int64()),
                            "g": grams.take(hit_pa),
                        }
                    )
                    .group_by(["i", "g"])
                    .aggregate([])
                )
                di = d.column("i").to_numpy(zero_copy_only=False)
                n_hits = np.bincount(
                    di, minlength=batch.num_rows
                ).astype(np.int64)
        return pa.table(
            {
                "doc_id": ids,
                "n_hits": pa.array(n_hits, pa.int64()),
                "contaminated": pa.array(n_hits > 0, pa.bool_()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def ngram_topk(ds, n=3, k=20, text_col="text"):
    """Corpus-wide top-k token n-grams.

    Scale shape: counts are pre-combined INSIDE each block (one
    vectorized gram explode + Arrow group_by per batch, emitting
    (ngram, partial-count) rows), so the shuffle moves one row per
    distinct n-gram per block, never one per occurrence; a single
    groupby-sum then a sort over the (small) distinct-ngram table
    yields the exact global top-k, ties broken by the n-gram string
    ascending.
    """

    def partial(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        _, grams = _ngram_tape(texts, n)
        g = (
            pa.table({"ngram": grams})
            .group_by(["ngram"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "ngram": g.column("ngram"),
                "n_partial": g.column("count_all").cast(pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("ngram")
        .aggregate(Sum("n_partial"))
    )

    def local_topk(tbl: pa.Table) -> pa.Table:
        # exact reduction: a row outside its block's top-k has >= k
        # strictly-greater rows in that block alone, so it cannot be in
        # the global top-k; the final sort then runs over ~blocks x k
        # rows instead of every distinct n-gram
        t = pa.table(
            {
                "ngram": tbl.column("ngram"),
                "n": tbl.column("sum(n_partial)"),
            }
        )
        idx = pc.sort_indices(
            t,
            sort_keys=[("n", "descending"), ("ngram", "ascending")],
        )
        return t.take(idx[:k])

    return (
        agg.map_batches(local_topk, batch_format="pyarrow")
        .sort(["n", "ngram"], descending=[True, False])
        .limit(k)
    )


def bpe_pairs(ds, k: int = 50, text_col: str = "text"):
    """Corpus-wide top-k adjacent character pairs within tokens,
    weighted by occurrence -- the candidate table of one BPE tokenizer
    training iteration (the merge picked greedily is the global
    argmax; re-running after applying merges iterates the algorithm).

    Scale shape mirrors ``ngram_topk``: inside each block the token
    tape is dictionary-encoded (vocabularies repeat heavily), pairs
    are generated per DISTINCT token by a sliced-substring loop
    bounded by the longest token (each step one zero-copy Arrow slice
    kernel over the vocab array, never per occurrence), weighted by
    the token's occurrence count, and pre-combined with one Arrow
    group_by -- so the shuffle moves one row per distinct pair per
    block; a single groupby-sum + block-local exact top-k reduction +
    one small sort yield the global top-k, ties by pair ascending.
    """

    def partial(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        lists = pc.split_pattern_regex(texts, pattern=r"\s+")
        flat = lists.flatten()
        enc = pc.dictionary_encode(flat)
        vocab = enc.dictionary
        occ = np.bincount(
            enc.indices.to_numpy(zero_copy_only=False),
            minlength=len(vocab),
        )
        lens = pc.utf8_length(vocab).to_numpy(zero_copy_only=False)
        pair_chunks, w_chunks = [], []
        max_len = int(lens.max(initial=0))
        for i in range(max_len - 1):
            has = lens >= i + 2
            if not has.any():
                break
            sel = pa.array(np.flatnonzero(has), pa.int64())
            pair_chunks.append(
                pc.utf8_slice_codeunits(vocab.take(sel), i, i + 2)
            )
            w_chunks.append(occ[has])
        if not pair_chunks:
            return pa.table(
                {
                    "pair": pa.array([], pa.string()),
                    "n_partial": pa.array([], pa.int64()),
                }
            )
        pairs = pa.concat_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
             for c in pair_chunks]
        )
        w = np.concatenate(w_chunks)
        g = (
            pa.table(
                {"pair": pairs, "w": pa.array(w, pa.int64())}
            )
            .group_by(["pair"])
            .aggregate([("w", "sum")])
        )
        return pa.table(
            {
                "pair": g.column("pair"),
                "n_partial": g.column("w_sum").cast(pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("n_partial"))
    )

    def local_topk(tbl: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "pair": tbl.column("pair"),
                "n": tbl.column("sum(n_partial)"),
            }
        )
        idx = pc.sort_indices(
            t, sort_keys=[("n", "descending"), ("pair", "ascending")]
        )
        return t.take(idx[:k])

    return (
        agg.map_batches(local_topk, batch_format="pyarrow")
        .sort(["n", "pair"], descending=[True, False])
        .limit(k)
    )


def quality_scores(ds, text_col="text", id_col="doc_id"):
    """Adds mechanical quality signals: mean token length, alpha ratio,
    space ratio, distinct-token ratio.

    Every column derives from ONE tokenization -- RE2's
    ASCII-whitespace ``\\S+`` / ``\\s`` classes, the same rule the SQL
    oracle's ``regexp_extract_all`` applies -- so the columns agree
    with each other and with the oracle on any corpus, including text
    with Unicode whitespace (NBSP, U+3000) where Python's ``str.split``
    would tokenize differently.  Fully vectorized: counts and lengths
    are Arrow kernels (sum of token lengths == total chars minus
    RE2-whitespace chars, exactly), and the distinct-token ratio is one
    regex split + flatten + Acero ``count_distinct`` group-by.
    """

    def fn(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        n = len(texts)
        n_chars = pc.cast(pc.utf8_length(texts), pa.float64()).to_numpy(
            zero_copy_only=False
        )
        n_tokens = pc.cast(
            pc.count_substring_regex(texts, r"\S+"), pa.float64()
        ).to_numpy(zero_copy_only=False)
        n_ws = pc.cast(
            pc.count_substring_regex(texts, r"\s"), pa.float64()
        ).to_numpy(zero_copy_only=False)
        n_alpha = pc.cast(
            pc.count_substring_regex(texts, r"\p{L}"), pa.float64()
        ).to_numpy(zero_copy_only=False)
        n_space = pc.cast(
            pc.count_substring(texts, " "), pa.float64()
        ).to_numpy(zero_copy_only=False)
        safe_chars = np.where(n_chars > 0, n_chars, 1.0)
        safe_toks = np.where(n_tokens > 0, n_tokens, 1.0)
        mean_tok = np.where(n_tokens > 0, (n_chars - n_ws) / safe_toks, 0.0)
        alpha_ratio = np.where(n_chars > 0, n_alpha / safe_chars, 0.0)
        space_ratio = np.where(n_chars > 0, n_space / safe_chars, 0.0)
        # distinct tokens per row from the SAME RE2 tokenization
        lists = pc.split_pattern_regex(texts, pattern=r"\s+")
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        offsets = offsets - offsets[0]
        row_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        nuniq = np.zeros(n, dtype=np.float64)
        if keep.any():
            pairs = pa.table(
                {
                    "row": pa.array(row_idx[keep], pa.int64()),
                    "tok": flat.filter(pa.array(keep)),
                }
            )
            agg = pairs.group_by("row").aggregate(
                [("tok", "count_distinct")]
            )
            nuniq[agg.column("row").to_numpy(zero_copy_only=False)] = (
                agg.column("tok_count_distinct").to_numpy(
                    zero_copy_only=False
                )
            )
        distinct_ratio = np.where(n_tokens > 0, nuniq / safe_toks, 0.0)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "mean_token_len": pa.array(mean_tok, pa.float64()),
                "alpha_ratio": pa.array(alpha_ratio, pa.float64()),
                "space_ratio": pa.array(space_ratio, pa.float64()),
                "distinct_token_ratio": pa.array(distinct_ratio, pa.float64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


class LangId:
    """Language identifier (stopword-hit heuristic).

    Tables are built in __init__.  Scoring is fully vectorized: one regex split
    over the batch, the token lists flattened to a (token, row) pair
    table, per-language membership via ``pc.is_in`` against the
    stopword dictionary arrays, and segmented hit counts + argmax in
    numpy -- no per-row or per-token Python in the hot path.

    Tokenization is ASCII-whitespace (``\\s+`` under RE2), the same
    rule the SQL oracle's ``regexp_extract_all(text,'\\S+')`` applies;
    ``detect`` keeps the original per-row formulation as the tests'
    reference (it uses Python's Unicode-aware ``str.split``, which
    agrees with the vectorized path on ASCII-whitespace corpora).
    """

    #: per-row hit scoring looks at the first N tokens only
    TOKEN_CAP = 200
    #: the CJK fallback scans the first N characters only
    CJK_HEAD = 400

    def __init__(self):
        self.langs = list(_STOPWORDS)
        self.tables = {lang: frozenset(ws) for lang, ws in _STOPWORDS.items()}
        self.dicts = [
            pa.array(sorted(_STOPWORDS[lang]), pa.string())
            for lang in self.langs
        ]

    def detect(self, text: str) -> str:
        """Scalar reference implementation (kept for tests)."""
        toks = text.split()[: self.TOKEN_CAP]
        best, best_hits = "unknown", 0
        for lang in self.langs:
            table = self.tables[lang]
            hits = sum(1 for t in toks if t in table)
            if hits > best_hits:
                best, best_hits = lang, hits
        if best == "unknown" and any(
            "一" <= c <= "鿿" for c in text[: self.CJK_HEAD]
        ):
            return "zh"
        return best

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(
            batch.column("text").combine_chunks(), ""
        )
        n = len(texts)
        if n == 0:
            return batch.append_column(
                "lang_pred", pa.array([], pa.string())
            )
        lists = pc.ascii_split_whitespace(texts)
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        offsets = offsets - offsets[0]
        row_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        # stopword membership is decided once per DISTINCT token (text
        # vocabularies repeat heavily), then fanned back out through the
        # dictionary indices
        d = pc.dictionary_encode(flat)
        vidx = d.indices.to_numpy(zero_copy_only=False)
        vocab = d.dictionary
        # The split emits empty strings at whitespace boundaries; an
        # empty string can never be a stopword, so they only matter for
        # the token-cap ordinal -- and the (expensive) per-token
        # ordinal is only needed for rows that could exceed the cap at
        # all.  For everything else membership alone decides.
        if np.diff(offsets).max(initial=0) <= self.TOKEN_CAP:
            in_cap = None
        else:
            keep = pc.not_equal(vocab, "").to_numpy(
                zero_copy_only=False
            )[vidx]
            csum = np.cumsum(keep.astype(np.int64))
            c0 = np.concatenate(([0], csum))
            kept_before_row = c0[offsets[:-1]]
            ordinal = csum - 1 - kept_before_row[row_idx]
            in_cap = keep & (ordinal < self.TOKEN_CAP)
        hits = np.zeros((n, len(self.langs)), dtype=np.int64)
        if len(flat):
            for j, dic in enumerate(self.dicts):
                vocab_member = pc.is_in(vocab, value_set=dic).to_numpy(
                    zero_copy_only=False
                )
                sel = vocab_member[vidx]
                if in_cap is not None:
                    sel = sel & in_cap
                if sel.any():
                    hits[:, j] = np.bincount(row_idx[sel], minlength=n)
        mx = hits.max(axis=1)
        # np.argmax returns the FIRST maximum: identical tie-break to
        # the scalar loop's strict greater-than in dict order
        pred = np.array(self.langs, dtype=object)[np.argmax(hits, axis=1)]
        zero = mx == 0
        if zero.any():
            # CJK fallback only scans the zero-hit rows
            zi = np.flatnonzero(zero)
            head = pc.utf8_slice_codeunits(
                texts.take(pa.array(zi, pa.int64())), 0, self.CJK_HEAD
            )
            cjk = pc.greater(
                pc.count_substring_regex(head, "[一-鿿]"), 0
            ).to_numpy(zero_copy_only=False)
            pred[zi] = np.where(cjk, "zh", "unknown")
        return batch.append_column(
            "lang_pred", pa.array(pred, pa.string())
        )


def _lang_pred(batch: pa.Table) -> pa.Table:
    return LangId()(batch)


def lang_id(ds):
    """Task ``map_batches``: the stopword tables are cheap to build, so
    each batch builds its own ``LangId`` instead of holding an actor."""
    return ds.map_batches(_lang_pred, batch_format="pyarrow")


_FP_BASE = 1000003
_FP_MOD = (1 << 61) - 1


def _fingerprint_scalar(t: str, base=_FP_BASE, mod=_FP_MOD) -> int:
    """Scalar reference implementation (kept for tests)."""
    h = 0
    for ch in " ".join(ascii_tokens(t)):
        h = (h * base + ord(ch)) % mod
    return h


def _fingerprint_vec(texts: list) -> np.ndarray:
    """Vectorized rolling hash: Horner across character positions.

    Texts are normalized, decoded to code-point rows (utf-32 buffer
    view, no per-char Python), padded into one (n_docs, max_len)
    matrix, and the Horner recurrence h = h*base + code runs once per
    COLUMN over the whole batch.  h*base mod 2^61-1 stays inside
    uint64 by splitting h into 31/30-bit halves and using
    2^61 = 1 (mod p) to fold the high product back -- no Python-int
    arithmetic in the loop.
    """
    p = np.uint64(_FP_MOD)
    base = np.uint64(_FP_BASE)
    norm = [" ".join(ascii_tokens(t)) for t in texts]
    lens = np.array([len(s) for s in norm], dtype=np.int64)
    n = len(norm)
    if n == 0 or lens.max(initial=0) == 0:
        return np.zeros(n, dtype=np.uint64)
    max_len = int(lens.max())
    codes = np.zeros((n, max_len), dtype=np.uint64)
    for i, s in enumerate(norm):
        if s:
            codes[i, : lens[i]] = np.frombuffer(
                s.encode("utf-32-le"), dtype=np.uint32
            )
    mask_lo = np.uint64((1 << 31) - 1)
    mask_30 = np.uint64((1 << 30) - 1)
    h = np.zeros(n, dtype=np.uint64)
    active = lens > 0
    for j in range(max_len):
        # h * base mod p  (h < p, base < 2^20)
        lo = (h & mask_lo) * base  # < 2^51
        hi = (h >> np.uint64(31)) * base  # < 2^50
        # (hi << 31) mod p via 2^61 == 1 (mod p)
        hi_red = (hi >> np.uint64(30)) + ((hi & mask_30) << np.uint64(31))
        t = lo + hi_red + codes[:, j]  # < 2^63
        t = (t & p) + (t >> np.uint64(61))
        t = np.where(t >= p, t - p, t)
        upd = active & (j < lens)
        h = np.where(upd, t, h)
    return h


def fingerprint(ds, text_col="text", id_col="doc_id"):
    """Deterministic rolling polynomial hash of the normalized text
    (whitespace runs collapsed to single spaces), mod 2^61-1."""

    def fn(batch: pa.Table) -> pa.Table:
        out = _fingerprint_vec(batch.column(text_col).to_pylist())
        return pa.table(
            {
                id_col: batch.column(id_col),
                "fingerprint": pa.array(out, pa.uint64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _explode_tok_occ(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """Distinct (doc, token, n_occ) rows for one batch -- the shared
    front half of the corpus-DF operators."""
    texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
    ids = batch.column(id_col).combine_chunks().cast(pa.int64())
    lists = pc.split_pattern_regex(texts, pattern=r"\s+")
    flat = lists.flatten()
    offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = offsets - offsets[0]
    row_idx = np.repeat(
        np.arange(len(texts), dtype=np.int64), np.diff(offsets)
    )
    pairs = pa.table(
        {
            id_col: pc.take(ids, pa.array(row_idx, pa.int64())),
            "tok": flat,
        }
    ).filter(pc.not_equal(flat, ""))
    occ = pairs.group_by([id_col, "tok"]).aggregate([("tok", "count")])
    return pa.table(
        {
            id_col: occ.column(id_col),
            "tok": occ.column("tok"),
            "n_occ": occ.column("tok_count").cast(pa.int64()),
        }
    )


def _per_token(ds, fn, text_col: str, id_col: str, n_buckets: int):
    """``fn`` over tables that each hold every ``_explode_tok_occ`` row
    of their tokens (``map_keyed`` on the token), so a token's corpus
    counts are local to one call."""
    return map_keyed(
        ds.map_batches(
            lambda b: _explode_tok_occ(b, text_col, id_col),
            batch_format="pyarrow",
        ),
        fn,
        key="tok",
        n_buckets=n_buckets,
    )


def _top_tokens(tbl: pa.Table, count_col: str, k: int) -> pa.Table:
    """(tok, c): the ``k`` tokens of ``tbl`` with the largest summed
    ``count_col``, ties token-ascending."""
    agg = tbl.group_by("tok").aggregate([(count_col, "sum")])
    toks = agg.column("tok").combine_chunks()
    cnts = agg.column(f"{count_col}_sum").to_numpy(zero_copy_only=False)
    order = np.lexsort(
        (np.asarray(toks.to_pylist(), dtype=object), -cnts)
    )[:k]
    return pa.table(
        {
            "tok": toks.take(pa.array(order, pa.int64())),
            "c": pa.array(cnts[order], pa.int64()),
        }
    )


def _classes(ds, class_col: str) -> list:
    """Sorted distinct values of a bounded class column (null as "")."""
    classes: set = set()
    for tbl in ds.map_batches(
        lambda b: pa.table(
            {
                "c": pc.unique(
                    pc.fill_null(b.column(class_col).combine_chunks(), "")
                )
            }
        ),
        batch_format="pyarrow",
    ).iter_batches(batch_format="pyarrow"):
        classes.update(tbl.column("c").to_pylist())
    return sorted(classes)


def _per_class_token(ds, fn, class_col, text_col, classes, n_buckets):
    """``_per_token`` with the class id ``cid`` (the index of
    ``class_col`` in ``classes``, -1 if absent) as the id column."""
    class_id = {c: i for i, c in enumerate(classes)}

    def with_cid(b: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(
            pc.fill_null(b.column(class_col).combine_chunks(), "")
        )
        dmap = np.array(
            [class_id.get(c, -1) for c in enc.dictionary.to_pylist()],
            np.int64,
        )
        cid = dmap[enc.indices.to_numpy(zero_copy_only=False)]
        return pa.table(
            {"cid": pa.array(cid, pa.int64()), text_col: b.column(text_col)}
        )

    return _per_token(
        ds.map_batches(with_cid, batch_format="pyarrow"),
        fn,
        text_col,
        "cid",
        n_buckets,
    )


def idf_rarity(ds, text_col="text", id_col="doc_id", n_buckets: int = 64):
    """Exact corpus document-frequency rarity signals (the integer
    skeleton of a CCNet-style LM-rarity quality filter).

    Per document (docs with >= 1 token): ``n_tokens`` (occurrences),
    ``sum_df`` (sum over occurrences of the token's corpus document
    frequency -- low means rare vocabulary), ``n_hapax`` (distinct
    tokens appearing in no other document).  All integers, so the SQL
    oracle is bit-exact.

    Plan: explode to distinct (doc, token, n_occ) rows per batch
    (vectorized split + one Arrow group_by); one ``map_keyed``
    exchange on the token puts every occurrence row of a token in ONE
    call, where its document frequency is a local bincount -- no
    per-token group dispatch, no df table, no broadcast; then one
    partial+final ``groupby(doc_id)`` sums the per-token contributions
    back to documents.  Two shuffles total, both the inherent cost of
    exact global DF; at 100 TB you would min_df-prune inside the
    bucket group before emitting.
    """

    def df_in_bucket(tbl: pa.Table) -> pa.Table:
        # every (doc, tok) row of a token is in this group, and rows
        # are distinct per (doc, tok) => df(tok) = row count per token
        enc = pc.dictionary_encode(tbl.column("tok").combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        df = np.bincount(codes, minlength=len(enc.dictionary))
        row_df = df[codes]
        n_occ = tbl.column("n_occ").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: tbl.column(id_col),
                "occ": tbl.column("n_occ"),
                "df_occ": pa.array(n_occ * row_df, pa.int64()),
                "hapax": pa.array((row_df == 1).astype(np.int64)),
            }
        )

    from ray.data.aggregate import Sum

    return (
        _per_token(ds, df_in_bucket, text_col, id_col, n_buckets)
        .groupby(id_col)
        .aggregate(Sum("occ"), Sum("df_occ"), Sum("hapax"))
        .rename_columns(
            {
                "sum(occ)": "n_tokens",
                "sum(df_occ)": "sum_df",
                "sum(hapax)": "n_hapax",
            }
        )
    )


def rarest_token(
    ds, text_col="text", id_col="doc_id", n_buckets: int = 64,
    n_doc_buckets: int = 64,
):
    """Per document, its rarest token by corpus document frequency
    (ties by lexicographically smallest token) and that token's DF --
    the argmin skeleton of TF-IDF term selection, exact end to end.

    Front half shared with ``idf_rarity``: token-hash bucket groups
    compute each token's DF locally.  Each bucket then emits ONE
    candidate row per document (its in-bucket argmin), so at most
    #token-buckets candidates per document leave the shuffle; the final
    argmin folds candidates inside doc-hash bucket groups with one
    lexsort -- group dispatch is bounded by bucket counts on both
    levels, never by document count.
    """

    def candidates_in_bucket(tbl: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(tbl.column("tok").combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        df = np.bincount(codes, minlength=len(enc.dictionary))
        row_df = df[codes]
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        toks = enc.dictionary.to_numpy(zero_copy_only=False)[codes]
        # per-doc argmin of (df, tok) within this bucket: lexsort then
        # first row per doc
        order = np.lexsort((toks, row_df, ids))
        first = np.ones(len(order), dtype=bool)
        sorted_ids = ids[order]
        first[1:] = sorted_ids[1:] != sorted_ids[:-1]
        sel = order[first]
        return pa.table(
            {
                id_col: pa.array(ids[sel], pa.int64()),
                "rare_tok": pa.array(toks[sel], pa.string()),
                "rare_df": pa.array(row_df[sel], pa.int64()),
            }
        )

    def fold_candidates(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        dfs = tbl.column("rare_df").to_numpy(zero_copy_only=False)
        toks = tbl.column("rare_tok").to_numpy(zero_copy_only=False)
        order = np.lexsort((toks, dfs, ids))
        first = np.ones(len(order), dtype=bool)
        sorted_ids = ids[order]
        first[1:] = sorted_ids[1:] != sorted_ids[:-1]
        sel = order[first]
        return pa.table(
            {
                id_col: pa.array(ids[sel], pa.int64()),
                "rare_tok": pa.array(toks[sel], pa.string()),
                "rare_df": pa.array(dfs[sel], pa.int64()),
            }
        )

    cands = _per_token(
        ds, candidates_in_bucket, text_col, id_col, n_buckets
    )
    return map_keyed(
        cands, fold_candidates, key=id_col, n_buckets=n_doc_buckets
    )


def _explode_spans(
    batch: pa.Table, text_col: str, id_col: str, k: int
) -> pa.Table:
    """Distinct (doc, k-token-span) rows for one batch.  Span strings
    are built by k vectorized object-array concats over the flattened
    token tape -- no per-row Python loop."""
    texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
    ids = batch.column(id_col).combine_chunks().cast(pa.int64())
    doc_idx, span = _ngram_tape(texts, k)
    pairs = pa.table(
        {
            id_col: pc.take(ids, pa.array(doc_idx, pa.int64())),
            "span": span,
        }
    )
    return pairs.group_by([id_col, "span"]).aggregate([])


def dup_spans(
    ds, text_col="text", id_col="doc_id", k: int = 8, n_buckets: int = 64
):
    """Exact duplicated-span detection (the per-document signal of
    exact-substring train-data dedup, Lee et al. 2022): for every
    document with >= k tokens, how many of its distinct k-token spans
    also appear verbatim in at least one OTHER document
    (``n_dup_spans``) alongside its distinct-span total (``n_spans``).
    All integers, so the SQL oracle is bit-exact.

    Plan: explode to distinct (doc, span) rows per batch (vectorized
    token tape + k object-array concats, one Arrow group_by); bucket by
    a span hash so every occurrence row of a span lands in ONE bucket
    group, where its cross-document frequency is a local bincount --
    no span-keyed groupby, no DF table, no broadcast; then one
    partial+final ``groupby(doc_id)`` sums the flags back to
    documents.  Same two-shuffle shape as ``idf_rarity``; at 100 TB
    you would hash spans to 128-bit fingerprints inside the explode to
    cut shuffle bytes (collision-risk documented) -- here the span
    string stays the key, so the result is exact.
    """

    def df_in_bucket(tbl: pa.Table) -> pa.Table:
        d = tbl.group_by([id_col, "span"]).aggregate([])
        enc = pc.dictionary_encode(d.column("span").combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        df = np.bincount(codes, minlength=len(enc.dictionary))
        dup = (df[codes] >= 2).astype(np.int64)
        part = pa.table(
            {
                id_col: d.column(id_col),
                "one": pa.array(np.ones(len(codes), np.int64)),
                "dup": pa.array(dup, pa.int64()),
            }
        )
        agg = part.group_by(id_col).aggregate([("one", "sum"), ("dup", "sum")])
        return pa.table(
            {
                id_col: agg.column(id_col),
                "n_part": agg.column("one_sum").cast(pa.int64()),
                "d_part": agg.column("dup_sum").cast(pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        map_keyed(
            ds.map_batches(
                lambda b: _explode_spans(b, text_col, id_col, k),
                batch_format="pyarrow",
            ),
            df_in_bucket,
            key="span",
            n_buckets=n_buckets,
        )
        .groupby(id_col)
        .aggregate(Sum("n_part"), Sum("d_part"))
        .rename_columns(
            {"sum(n_part)": "n_spans", "sum(d_part)": "n_dup_spans"}
        )
    )


def cooccur_topk(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    vocab_size: int = 64,
    k: int = 50,
    n_buckets: int = 64,
):
    """Top-k document-level token co-occurrence (word association
    mining): restrict to the ``vocab_size`` highest-document-frequency
    tokens, count for every unordered vocab pair the number of
    documents containing BOTH, return the ``k`` strongest pairs
    (ties: token order).  The integer skeleton of PMI / collocation
    scoring -- the float PMI is one log of these counts away and
    deliberately left to the caller so the aggregate stays exact.

    Scale shape: pass 1 reuses ``_explode_tok_occ``'s distinct
    (doc, token) explode; token-hash buckets compute exact per-token
    DF locally and keep only their own top ``vocab_size`` candidates,
    so the driver-side final vocab selection sees at most
    ``n_buckets * vocab_size`` rows (never token cardinality).  Pass 2
    re-explodes each block, keeps vocab members only (one
    ``pc.index_in`` per block against the broadcast sorted vocab), and
    bincounts pair keys ``a * V + b`` into a dense ``V^2`` partial per
    block -- the one groupby that follows sums at most ``V*(V-1)/2``
    keys.  Vocab-id order IS lexicographic token order, so ``a < b``
    matches the SQL ``a.t < b.t`` pairing exactly.
    """
    from ray.data.aggregate import Sum

    vs = int(vocab_size)

    def df_in_bucket(tbl: pa.Table) -> pa.Table:
        d = tbl.group_by("tok").aggregate([(id_col, "count")])
        out = pa.table(
            {
                "tok": d.column("tok"),
                "df": d.column(f"{id_col}_count").cast(pa.int64()),
            }
        ).sort_by([("df", "descending"), ("tok", "ascending")])
        return out.slice(0, vs)

    cand = _per_token(
        ds, df_in_bucket, text_col, id_col, n_buckets
    ).to_pandas()  # bounded: n_buckets * vocab_size candidate rows
    cand = cand.sort_values(
        ["df", "tok"], ascending=[False, True]
    ).head(vs)
    vocab = pa.array(sorted(cand["tok"]), pa.string())
    v = len(vocab)

    def pair_partials(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        n = len(texts)
        if n == 0:
            return pa.table(
                {
                    "key": pa.array([], pa.int64()),
                    "n_part": pa.array([], pa.int64()),
                }
            )
        lists = pc.split_pattern_regex(texts, pattern=r"\s+")
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        offsets = offsets - offsets[0]
        row_idx = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(offsets)
        )
        vid = pc.index_in(flat, value_set=vocab)
        mask = pc.is_valid(vid).to_numpy(zero_copy_only=False)
        rows = row_idx[mask]
        vids = vid.to_numpy(zero_copy_only=False)[mask].astype(np.int64)
        if not len(rows):
            return pa.table(
                {
                    "key": pa.array([], pa.int64()),
                    "n_part": pa.array([], pa.int64()),
                }
            )
        # distinct (row, vid), ordered so in-row vids ascend
        pair_key = rows * v + vids
        pair_key = np.unique(pair_key)
        rows = pair_key // v
        vids = pair_key - rows * v
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        counts = np.diff(
            np.append(np.flatnonzero(first), len(rows))
        ).astype(np.int64)
        from .dedup import _tri_pairs

        a, b = _tri_pairs(counts)
        if not len(a):
            return pa.table(
                {
                    "key": pa.array([], pa.int64()),
                    "n_part": pa.array([], pa.int64()),
                }
            )
        keys = vids[a] * v + vids[b]
        cnt = np.bincount(keys, minlength=v * v)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "key": pa.array(nz.astype(np.int64), pa.int64()),
                "n_part": pa.array(cnt[nz].astype(np.int64), pa.int64()),
            }
        )

    def label(batch: pa.Table) -> pa.Table:
        keys = batch.column("key").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "token_a": vocab.take(
                    pa.array(keys // v, pa.int64())
                ),
                "token_b": vocab.take(
                    pa.array(keys % v, pa.int64())
                ),
                "n_docs": batch.column(
                    "sum(n_part)"
                ).cast(pa.int64()),
            }
        )

    return (
        ds.map_batches(pair_partials, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("n_part"))
        .map_batches(label, batch_format="pyarrow")
        .sort(
            ["n_docs", "token_a", "token_b"],
            descending=[True, False, False],
        )
        .limit(k)
    )


def unigram_logprob(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
    scale: int = 1_000_000,
):
    """CCNet-style unigram language-model quality score: each
    document's log-probability under the corpus's own unigram
    distribution (low average log-prob = rare/garbled vocabulary --
    the classic perplexity-filter signal, with the corpus itself as
    the LM so no external model is needed).

    Exactness contract: per-token log-probabilities are QUANTIZED to
    integer micro-nats, ``lp(tok) = floor((ln(c_tok) - ln(C)) *
    scale)`` with ``c_tok`` the token's corpus occurrence count and
    ``C`` the corpus total.  ``ln`` is evaluated by ``math.log``
    (libm), which is bit-identical to DuckDB's ``ln`` (numpy's SIMD
    log is NOT -- it diverges at the ULP); the quantized values are
    then plain int64, so every downstream sum is order-free and the
    SQL mirror is exact.  The one float column, ``avg_logprob``, is a
    single IEEE division of exact integers.

    Plan: pass 1 streams the corpus once for the total token count
    ``C`` (per-block partials, zero shuffle, one driver scalar); pass
    2 is the shared ``_explode_tok_occ`` front half -- token-hash
    bucket groups own every occurrence row of their tokens, so each
    token's corpus count (and its ``math.log``, evaluated once per
    DISTINCT count value) is computed locally, no vocabulary table,
    no broadcast -- followed by one partial+final ``groupby(doc_id)``
    over integer contributions.  Documents with zero tokens vanish
    (the unnest-based SQL shape).
    """

    def count_part(b: pa.Table) -> pa.Table:
        n = pc.sum(
            pc.count_substring_regex(
                pc.fill_null(b.column(text_col), ""), _TOKEN_RE
            )
        ).as_py()
        return pa.table({"n": pa.array([int(n or 0)], pa.int64())})

    parts = ds.map_batches(count_part, batch_format="pyarrow").take_all()
    c_total = sum(r["n"] for r in parts)
    if c_total == 0:
        raise ValueError("unigram_logprob: corpus has no tokens")
    ln_total = math.log(float(c_total))
    scale_f = float(scale)

    def lp_in_bucket(tbl: pa.Table) -> pa.Table:
        # every occurrence row of a token is in this group, so its
        # corpus count is a local weighted bincount
        enc = pc.dictionary_encode(tbl.column("tok").combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        n_occ = tbl.column("n_occ").to_numpy(zero_copy_only=False)
        cnt = np.zeros(len(enc.dictionary), np.int64)
        np.add.at(cnt, codes, n_occ)
        # math.log once per DISTINCT count value (libm == DuckDB ln);
        # the expression tree mirrors the SQL literally:
        # floor((ln(c) - ln(C)) * scale)
        uniq = np.unique(cnt)
        lp_uniq = np.array(
            [
                math.floor((math.log(float(c)) - ln_total) * scale_f)
                for c in uniq
            ],
            np.int64,
        )
        row_lp = lp_uniq[np.searchsorted(uniq, cnt)][codes]
        return pa.table(
            {
                id_col: tbl.column(id_col),
                "occ": tbl.column("n_occ"),
                "lp": pa.array(n_occ * row_lp, pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("sum(occ)").to_numpy(zero_copy_only=False)
        lp = b.column("sum(lp)").to_numpy(zero_copy_only=False)
        # ONE IEEE division of exact integers (int64 -> float64 is
        # exact below 2^53) -- the SQL mirror casts the same way
        avg = lp.astype(np.float64) / (scale * n).astype(np.float64)
        return pa.table(
            {
                id_col: b.column(id_col),
                "n_tokens": pa.array(n, pa.int64()),
                "logprob_q": pa.array(lp, pa.int64()),
                "avg_logprob": pa.array(avg, pa.float64()),
            }
        )

    return (
        _per_token(ds, lp_in_bucket, text_col, id_col, n_buckets)
        .groupby(id_col)
        .aggregate(Sum("occ"), Sum("lp"))
        .map_batches(finish, batch_format="pyarrow")
    )


def vocab_oov(
    ds,
    vocab_size: int = 1000,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
):
    """Vocabulary coverage: build the corpus's top-``vocab_size``
    token vocabulary (by occurrence count, ties by token ascending)
    and score every document's out-of-vocabulary rate against it --
    the tokenizer-coverage check run before committing a vocab to a
    training run.

    Plan: pass 1 reuses the token-hash bucket front half; a token
    lives wholly in one bucket, so the global top-V is a subset of
    the union of per-bucket top-Vs -- each bucket emits at most V
    candidate rows and the driver folds <= n_buckets * V rows (never
    the vocabulary).  Pass 2 broadcasts the tiny vocab array and
    counts OOV occurrences per document vectorized (one split + one
    ``pc.is_in`` + one segmented sum per batch, zero shuffles).
    Integer counts end to end; ``oov_rate`` is one IEEE division.
    Zero-token documents vanish (the unnest-based SQL shape).
    """

    cand = _per_token(
        ds,
        lambda t: _top_tokens(t, "n_occ", vocab_size),
        text_col,
        id_col,
        n_buckets,
    ).take_all()
    cand.sort(key=lambda r: (-r["c"], r["tok"]))
    vocab = pa.array([r["tok"] for r in cand[:vocab_size]], pa.string())

    def oov_batch(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(b.column(text_col).combine_chunks(), "")
        lists = pc.split_pattern_regex(texts, pattern=r"\s+")
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        offsets = offsets - offsets[0]
        row_idx = np.repeat(
            np.arange(len(texts), dtype=np.int64), np.diff(offsets)
        )
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        oov = pc.invert(
            pc.is_in(flat, value_set=vocab)
        ).to_numpy(zero_copy_only=False)
        n_tok = np.bincount(
            row_idx, weights=nonempty, minlength=len(texts)
        ).astype(np.int64)
        n_oov = np.bincount(
            row_idx, weights=nonempty & oov, minlength=len(texts)
        ).astype(np.int64)
        keep = n_tok > 0
        rate = n_oov[keep].astype(np.float64) / n_tok[keep].astype(
            np.float64
        )
        return pa.table(
            {
                id_col: b.column(id_col).combine_chunks().filter(
                    pa.array(keep)
                ),
                "n_tokens": pa.array(n_tok[keep], pa.int64()),
                "n_oov": pa.array(n_oov[keep], pa.int64()),
                "oov_rate": pa.array(rate, pa.float64()),
            }
        )

    return ds.map_batches(oov_batch, batch_format="pyarrow")


def bigram_logprob(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
    scale: int = 1_000_000,
):
    """Bigram conditional-LM quality score -- the KenLM-shaped sibling
    of ``unigram_logprob``: each document's log-probability under the
    corpus's own bigram model, ``sum over adjacent pairs (w1, w2) of
    ln(c2(w1,w2) / c1(w1))`` with ``c2`` the corpus bigram count and
    ``c1(w1) = sum_w2 c2(w1, w2)`` (occurrences of ``w1`` followed by
    anything -- the conditional's own normalizer, so probabilities
    per ``w1`` sum to 1 exactly).

    Same exactness contract as the unigram operator: per-pair
    log-probs quantized to integer micro-nats with libm ``ln``
    (``math.log`` == DuckDB ``ln`` bit-for-bit; the surrounding
    subtract/multiply/floor are single-rounding IEEE ops, identical
    in numpy), sums order-free int64, one IEEE division at the end.

    Plan: the batch explode builds aligned (w1, w2) arrays from the
    shared token tape (two strided gathers, no string concat) and
    pre-aggregates per (doc, w1, w2); bucketing by a hash of ``w1``
    co-locates every bigram with its conditioning unigram, so BOTH
    counts are local to one bucket group -- no second table, no join,
    no broadcast.  One partial+final ``groupby(doc_id)`` finishes.
    Documents with < 2 tokens vanish (the SQL mirror's
    ``len(tk) >= 2`` shape).
    """
    empty = pa.schema(
        [
            (id_col, pa.int64()),
            ("w1", pa.string()),
            ("w2", pa.string()),
            ("n_occ", pa.int64()),
        ]
    )

    def explode(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(b.column(text_col).combine_chunks(), "")
        ids = b.column(id_col).combine_chunks().cast(pa.int64())
        flat, counts, new_off = _token_tape(texts)
        n_grams = np.maximum(counts - 1, 0)
        total = int(n_grams.sum())
        if not total:
            return empty.empty_table()
        doc_idx = np.repeat(
            np.arange(len(counts), dtype=np.int64), n_grams
        )
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(n_grams)])[:-1], n_grams
        )
        starts = new_off[doc_idx] + within
        pairs = pa.table(
            {
                id_col: pc.take(ids, pa.array(doc_idx, pa.int64())),
                "w1": flat.take(pa.array(starts, pa.int64())),
                "w2": flat.take(pa.array(starts + 1, pa.int64())),
            }
        )
        occ = pairs.group_by([id_col, "w1", "w2"]).aggregate(
            [("w2", "count")]
        )
        return pa.table(
            {
                id_col: occ.column(id_col),
                "w1": occ.column("w1"),
                "w2": occ.column("w2"),
                "n_occ": occ.column("w2_count").cast(pa.int64()),
            }
        )

    scale_f = float(scale)

    def _ln_lookup(vals: np.ndarray) -> np.ndarray:
        uniq = np.unique(vals)
        lns = np.array([math.log(float(v)) for v in uniq], np.float64)
        return lns[np.searchsorted(uniq, vals)]

    def lp_in_bucket(tbl: pa.Table) -> pa.Table:
        n_occ = tbl.column("n_occ").to_numpy(zero_copy_only=False)
        e1 = pc.dictionary_encode(tbl.column("w1").combine_chunks())
        e2 = pc.dictionary_encode(tbl.column("w2").combine_chunks())
        k1 = e1.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k2 = e2.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # c1(w1): every bigram row with this w1 is in this group
        c1 = np.zeros(len(e1.dictionary), np.int64)
        np.add.at(c1, k1, n_occ)
        # c2(w1, w2) via a combined code
        comb = k1 * (len(e2.dictionary) + 1) + k2
        uniq, inv = np.unique(comb, return_inverse=True)
        c2u = np.zeros(len(uniq), np.int64)
        np.add.at(c2u, inv, n_occ)
        # floor((ln(c2) - ln(c1)) * scale): ln from libm per DISTINCT
        # count value; subtract/multiply/floor are exact-IEEE and
        # identical in numpy and DuckDB
        lp = np.floor(
            (_ln_lookup(c2u[inv]) - _ln_lookup(c1[k1])) * scale_f
        ).astype(np.int64)
        return pa.table(
            {
                id_col: tbl.column(id_col),
                "occ": tbl.column("n_occ"),
                "lp": pa.array(n_occ * lp, pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("sum(occ)").to_numpy(zero_copy_only=False)
        lp = b.column("sum(lp)").to_numpy(zero_copy_only=False)
        avg = lp.astype(np.float64) / (scale * n).astype(np.float64)
        return pa.table(
            {
                id_col: b.column(id_col),
                "n_bigrams": pa.array(n, pa.int64()),
                "logprob2_q": pa.array(lp, pa.int64()),
                "avg_logprob2": pa.array(avg, pa.float64()),
            }
        )

    return (
        map_keyed(
            ds.map_batches(explode, batch_format="pyarrow"),
            lp_in_bucket,
            key="w1",
            n_buckets=n_buckets,
        )
        .groupby(id_col)
        .aggregate(Sum("occ"), Sum("lp"))
        .map_batches(finish, batch_format="pyarrow")
    )


def token_entropy(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    scale: int = 1_000_000,
):
    """Per-document Shannon entropy of the document's OWN token
    distribution, in integer micro-nats -- the repetitiveness /
    diversity quality signal (near-zero entropy = template or
    single-token spam text; the Gopher-class filter alongside
    ``quality_signals`` and ``repetition_signals``).

    Exactness contract: a token TYPE with in-doc count ``c`` in a
    document of ``n`` tokens contributes ``c * floor((ln(n) - ln(c))
    * scale)``; ``ln`` is ``math.log`` (libm, bit-identical to
    DuckDB's ``ln`` -- numpy's SIMD log is not), evaluated once per
    DISTINCT count value, and the floor/multiply run in IEEE double
    with the identical expression tree, so the summed ``entropy_q``
    is exact int64 and ``avg_entropy`` (nats) is one IEEE division.

    Scale shape: a document is one row, so the whole operator is
    batch-local -- one vectorized split + one Arrow ``group_by`` per
    batch, zero shuffles, no vocabulary, no broadcast.  Zero-token
    documents vanish (the unnest-based SQL shape).
    """
    scale_f = float(scale)

    def ent_batch(b: pa.Table) -> pa.Table:
        occ = _explode_tok_occ(b, text_col, id_col)
        ids = occ.column(id_col).to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "entropy_q": pa.array([], pa.int64()),
                    "avg_entropy": pa.array([], pa.float64()),
                }
            )
        n_occ = occ.column("n_occ").to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids_s, c = ids[order], n_occ[order]
        starts = np.flatnonzero(np.r_[True, ids_s[1:] != ids_s[:-1]])
        doc_ids = ids_s[starts]
        n_tok = np.add.reduceat(c, starts)
        seg = np.repeat(
            np.arange(len(starts), dtype=np.int64),
            np.diff(np.r_[starts, len(ids_s)]),
        )
        # math.log once per DISTINCT value (libm == DuckDB ln); the
        # expression tree mirrors the SQL literally:
        # floor((ln(n) - ln(c)) * scale) * c
        vals = np.unique(np.concatenate([c, n_tok]))
        ln_map = np.array(
            [math.log(float(v)) for v in vals], np.float64
        )
        ln_c = ln_map[np.searchsorted(vals, c)]
        ln_n = ln_map[np.searchsorted(vals, n_tok)][seg]
        contrib = c * np.floor((ln_n - ln_c) * scale_f).astype(np.int64)
        ent_q = np.add.reduceat(contrib, starts)
        avg = ent_q.astype(np.float64) / (scale * n_tok).astype(
            np.float64
        )
        return pa.table(
            {
                id_col: pa.array(doc_ids, pa.int64()),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "entropy_q": pa.array(ent_q, pa.int64()),
                "avg_entropy": pa.array(avg, pa.float64()),
            }
        )

    return ds.map_batches(ent_batch, batch_format="pyarrow")


def domain_kl(
    ds,
    class_col: str = "source",
    text_col: str = "text",
    n_buckets: int = 64,
    scale: int = 1_000_000,
):
    """Per-class KL divergence of the class's unigram distribution
    from the whole-corpus distribution, ``KL(P_class || P_corpus)``
    in integer micro-nats -- the domain-shift diagnostic run before
    committing a domain-mixing recipe (a class whose KL is near zero
    adds no diversity; a huge KL flags vocabulary drift).

    Exactness contract: a token type with in-class count ``c_ct``
    contributes ``c_ct * floor((ln(c_ct) - ln(C_c) - ln(c_t) +
    ln(C)) * scale)`` (``C_c`` class total, ``c_t`` corpus count of
    the token, ``C`` corpus total); ``ln`` is ``math.log`` (libm ==
    DuckDB ``ln``), evaluated once per DISTINCT count value, floor in
    IEEE double with the identical left-to-right expression tree --
    exact int64 sums, one IEEE division for ``kl_nats``.

    Scale shape: classes are bounded (sources, languages), tokens are
    not.  Pass 1 computes the per-class totals from per-block
    partials (driver fold bounded by class count).  Pass 2 is the
    shared token-hash bucket front half with the class id carried:
    a bucket group owns every occurrence row of its tokens, so BOTH
    the per-(class, token) count and the corpus count of the token
    are bucket-local -- no vocabulary table, no join, no broadcast of
    anything unbounded; each bucket emits <= n_classes partial rows
    and the driver folds <= n_buckets x n_classes of them (both
    factors bounded -- a Ray groupby here would pay a full fixed
    all-to-all for a few hundred rows).  One shuffle total, over
    (class, tok, n_occ) rows (post-aggregation size).
    """

    def class_part(b: pa.Table) -> pa.Table:
        cls = pc.fill_null(b.column(class_col).combine_chunks(), "")
        n = pc.count_substring_regex(
            pc.fill_null(b.column(text_col), ""), _TOKEN_RE
        ).cast(pa.int64())
        return (
            pa.table({"cls": cls, "n": n})
            .group_by("cls")
            .aggregate([("n", "sum")])
        )

    totals: dict[str, int] = {}
    for tbl in ds.map_batches(
        class_part, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        for cls, n in zip(
            tbl.column("cls").to_pylist(), tbl.column("n_sum").to_pylist()
        ):
            totals[cls] = totals.get(cls, 0) + int(n)
    totals = {c: n for c, n in totals.items() if n > 0}
    if not totals:
        raise ValueError("domain_kl: corpus has no tokens")
    classes = sorted(totals)
    c_total = sum(totals.values())
    ln_total = math.log(float(c_total))
    ln_cc = np.array(
        [math.log(float(totals[c])) for c in classes], np.float64
    )
    cc_arr = np.array([totals[c] for c in classes], np.int64)
    scale_f = float(scale)

    def kl_in_bucket(tbl: pa.Table) -> pa.Table:
        # every occurrence row of a token is in this group: both the
        # (class, token) count and the token's corpus count are local
        agg = tbl.group_by(["cid", "tok"]).aggregate([("n_occ", "sum")])
        cid = agg.column("cid").to_numpy(zero_copy_only=False)
        c_ct = agg.column("n_occ_sum").to_numpy(zero_copy_only=False)
        enc = pc.dictionary_encode(agg.column("tok").combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        c_t = np.zeros(len(enc.dictionary), np.int64)
        np.add.at(c_t, codes, c_ct)
        vals = np.unique(np.concatenate([c_ct, c_t]))
        ln_map = np.array(
            [math.log(float(v)) for v in vals], np.float64
        )
        ln_cct = ln_map[np.searchsorted(vals, c_ct)]
        ln_ct = ln_map[np.searchsorted(vals, c_t)][codes]
        # identical left-to-right tree:
        # floor((ln(c_ct) - ln(C_c) - ln(c_t) + ln(C)) * scale)
        contrib = c_ct * np.floor(
            (ln_cct - ln_cc[cid] - ln_ct + ln_total) * scale_f
        ).astype(np.int64)
        part = np.zeros(len(classes), np.int64)
        np.add.at(part, cid, contrib)
        nz = np.flatnonzero(part != 0)
        # keep zero-sum classes that do appear in the bucket so every
        # class with tokens survives to the final groupby
        seen = np.unique(cid)
        keep = np.union1d(nz, seen)
        return pa.table(
            {
                "cid": pa.array(keep, pa.int64()),
                "klp": pa.array(part[keep], pa.int64()),
            }
        )

    import ray.data

    kl_acc = np.zeros(len(classes), np.int64)
    seen_cls = np.zeros(len(classes), bool)
    for tbl in _per_class_token(
        ds, kl_in_bucket, class_col, text_col, classes, n_buckets
    ).iter_batches(batch_format="pyarrow"):
        cid = tbl.column("cid").to_numpy(zero_copy_only=False)
        np.add.at(
            kl_acc, cid, tbl.column("klp").to_numpy(zero_copy_only=False)
        )
        seen_cls[cid] = True
    cid = np.flatnonzero(seen_cls)
    klq = kl_acc[cid]
    n_tok = cc_arr[cid]
    return ray.data.from_arrow(
        pa.table(
            {
                class_col: pa.array(
                    [classes[i] for i in cid], pa.string()
                ),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "kl_q": pa.array(klq, pa.int64()),
                "kl_nats": pa.array(
                    klq.astype(np.float64)
                    / (scale * n_tok).astype(np.float64),
                    pa.float64(),
                ),
            }
        )
    )


def pmi_topk(
    ds,
    text_col: str = "text",
    k: int = 25,
    min_count: int = 5,
    n_buckets: int = 64,
    scale: int = 1_000_000,
):
    """Top-``k`` adjacent-token collocations by pointwise mutual
    information -- the word2vec phrase-detection signal (Mikolov et
    al. 2013 score with explicit probabilities): ``PMI(w1, w2) =
    ln p2(w1,w2) - ln p1(w1) - ln p1(w2)`` with ``p2`` from the
    bigram stream (``N2`` pairs) and ``p1`` from the token stream
    (``N1`` tokens), restricted to pairs seen >= ``min_count`` times.

    Exactness contract: ``pmi_q = floor((ln(c2) - ln(N2) - ln(c1w1)
    - ln(c1w2) + ln(N1) + ln(N1)) * scale)`` -- libm ``ln`` once per
    DISTINCT count, the same left-to-right IEEE tree as the SQL, so
    the quantized PMI and the (pmi_q DESC, w1, w2) top-k cut are
    bit-exact.

    Scale shape: one corpus explode emits per-batch pre-aggregated
    unigram rows (the token in ``w1``) and bigram rows, and pass 1 is
    one ``map_keyed`` exchange on ``w1``, so a call owns every
    occurrence of its tokens AND of the pairs they lead: ``c1(w1)``
    attaches locally and ``min_count`` prunes the pair table to
    collocation candidates before anything else moves.  Pass 2 keys
    the surviving candidates on ``w2``, together with the
    (vocabulary-sized, post-aggregation) unigram count rows, which
    carry their token in ``w2`` too -- ``c1(w2)`` attaches locally,
    each call emits its own top-``k`` under the full sort key, and the
    driver folds <= n_buckets x k rows.  Two shuffles, both over
    post-aggregation rows; the corpus itself never shuffles.
    """
    empty = pa.schema(
        [
            ("w1", pa.string()),
            ("w2", pa.string()),
            ("n_occ", pa.int64()),
            ("kind", pa.int8()),
        ]
    )

    def count_part(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(b.column(text_col), "")
        n1 = pc.sum(pc.count_substring_regex(texts, _TOKEN_RE)).as_py()
        _, counts, _ = _token_tape(
            pc.fill_null(b.column(text_col).combine_chunks(), "")
        )
        n2 = int(np.maximum(counts - 1, 0).sum())
        return pa.table(
            {
                "n1": pa.array([int(n1 or 0)], pa.int64()),
                "n2": pa.array([n2], pa.int64()),
            }
        )

    parts = ds.map_batches(count_part, batch_format="pyarrow").take_all()
    n1_total = sum(r["n1"] for r in parts)
    n2_total = sum(r["n2"] for r in parts)
    if n2_total == 0:
        raise ValueError("pmi_topk: corpus has no adjacent pairs")
    ln_n1 = math.log(float(n1_total))
    ln_n2 = math.log(float(n2_total))
    scale_f = float(scale)

    def explode(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(b.column(text_col).combine_chunks(), "")
        flat, counts, new_off = _token_tape(texts)
        if len(flat) == 0:
            return empty.empty_table()
        uni = (
            pa.table({"w1": flat})
            .group_by("w1")
            .aggregate([("w1", "count")])
        )
        out = [
            pa.table(
                {
                    "w1": uni.column("w1"),
                    "w2": pa.array([""] * len(uni), pa.string()),
                    "n_occ": uni.column("w1_count").cast(pa.int64()),
                    "kind": pa.array(
                        np.zeros(len(uni), np.int8), pa.int8()
                    ),
                }
            )
        ]
        n_grams = np.maximum(counts - 1, 0)
        total = int(n_grams.sum())
        if total:
            doc_idx = np.repeat(
                np.arange(len(counts), dtype=np.int64), n_grams
            )
            within = np.arange(total, dtype=np.int64) - np.repeat(
                np.concatenate([[0], np.cumsum(n_grams)])[:-1], n_grams
            )
            starts = new_off[doc_idx] + within
            pairs = (
                pa.table(
                    {
                        "w1": flat.take(pa.array(starts, pa.int64())),
                        "w2": flat.take(
                            pa.array(starts + 1, pa.int64())
                        ),
                    }
                )
                .group_by(["w1", "w2"])
                .aggregate([("w2", "count")])
            )
            out.append(
                pa.table(
                    {
                        "w1": pairs.column("w1"),
                        "w2": pairs.column("w2"),
                        "n_occ": pairs.column("w2_count").cast(
                            pa.int64()
                        ),
                        "kind": pa.array(
                            np.ones(len(pairs), np.int8), pa.int8()
                        ),
                    }
                )
            )
        return pa.concat_tables(out)

    def bucket1(tbl: pa.Table) -> pa.Table:
        kind = tbl.column("kind").to_numpy(zero_copy_only=False)
        n_occ = tbl.column("n_occ").to_numpy(zero_copy_only=False)
        w1 = tbl.column("w1").combine_chunks()
        # c1 per local token (all corpus occurrences are here)
        e1 = pc.dictionary_encode(w1)
        k1 = e1.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        c1 = np.zeros(len(e1.dictionary), np.int64)
        np.add.at(c1, k1[kind == 0], n_occ[kind == 0])
        # re-emit the aggregated unigram rows, keyed on the token in
        # w2 (pass 2's key: pair rows meet the unigram row of their w2)
        seen = np.unique(k1[kind == 0])
        uni_toks = e1.dictionary.take(pa.array(seen, pa.int64()))
        out = [
            pa.table(
                {
                    "w1": uni_toks,
                    "w2": uni_toks,
                    "c2": pa.array(c1[seen], pa.int64()),
                    "c1w1": pa.array(
                        np.zeros(len(seen), np.int64), pa.int64()
                    ),
                    "kind": pa.array(
                        np.zeros(len(seen), np.int8), pa.int8()
                    ),
                }
            )
        ]
        # pair counts + min_count prune + local c1(w1) attach
        pr = kind == 1
        if pr.any():
            sub = pa.table(
                {
                    "w1": w1.filter(pa.array(pr)),
                    "w2": tbl.column("w2").combine_chunks().filter(
                        pa.array(pr)
                    ),
                    "n_occ": pa.array(n_occ[pr], pa.int64()),
                }
            )
            agg = sub.group_by(["w1", "w2"]).aggregate([("n_occ", "sum")])
            c2 = agg.column("n_occ_sum").to_numpy(zero_copy_only=False)
            keep = c2 >= min_count
            if keep.any():
                kept = agg.filter(pa.array(keep))
                ek = pc.dictionary_encode(
                    kept.column("w1").combine_chunks()
                )
                # kept w1 dictionary is a subset of e1.dictionary's
                # value space; re-look-up its c1 by value
                pos = pc.index_in(ek.dictionary, e1.dictionary)
                c1w1 = c1[pos.to_numpy(zero_copy_only=False)][
                    ek.indices.to_numpy(zero_copy_only=False)
                ]
                out.append(
                    pa.table(
                        {
                            "w1": kept.column("w1"),
                            "w2": kept.column("w2"),
                            "c2": kept.column("n_occ_sum").cast(
                                pa.int64()
                            ),
                            "c1w1": pa.array(c1w1, pa.int64()),
                            "kind": pa.array(
                                np.ones(len(kept), np.int8), pa.int8()
                            ),
                        }
                    )
                )
        return pa.concat_tables(out)

    def _ln_per_distinct(vals: np.ndarray) -> np.ndarray:
        uniq = np.unique(vals)
        lns = np.array([math.log(float(v)) for v in uniq], np.float64)
        return lns[np.searchsorted(uniq, vals)]

    def bucket2(tbl: pa.Table) -> pa.Table:
        kind = tbl.column("kind").to_numpy(zero_copy_only=False)
        uni_mask = kind == 0
        pair_mask = ~uni_mask
        if not pair_mask.any():
            return pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "c2": pa.array([], pa.int64()),
                    "pmi_q": pa.array([], pa.int64()),
                }
            )
        toks = tbl.column("w1").combine_chunks().filter(
            pa.array(uni_mask)
        )
        c1_vals = tbl.column("c2").to_numpy(zero_copy_only=False)[
            uni_mask
        ]
        w2 = tbl.column("w2").combine_chunks().filter(
            pa.array(pair_mask)
        )
        pos = pc.index_in(w2, toks).to_numpy(zero_copy_only=False)
        c1w2 = c1_vals[pos]
        c2 = tbl.column("c2").to_numpy(zero_copy_only=False)[pair_mask]
        c1w1 = tbl.column("c1w1").to_numpy(zero_copy_only=False)[
            pair_mask
        ]
        # identical left-to-right tree: floor((ln(c2) - ln(N2) -
        # ln(c1w1) - ln(c1w2) + ln(N1) + ln(N1)) * scale)
        pmi = np.floor(
            (
                _ln_per_distinct(c2)
                - ln_n2
                - _ln_per_distinct(c1w1)
                - _ln_per_distinct(c1w2)
                + ln_n1
                + ln_n1
            )
            * scale_f
        ).astype(np.int64)
        w1p = tbl.column("w1").combine_chunks().filter(
            pa.array(pair_mask)
        )
        order = np.lexsort(
            (
                np.asarray(w2.to_pylist(), dtype=object),
                np.asarray(w1p.to_pylist(), dtype=object),
                -pmi,
            )
        )[:k]
        idx = pa.array(order, pa.int64())
        return pa.table(
            {
                "w1": w1p.take(idx),
                "w2": w2.take(idx),
                "c2": pa.array(c2[order], pa.int64()),
                "pmi_q": pa.array(pmi[order], pa.int64()),
            }
        )

    import ray.data

    pass1 = map_keyed(
        ds.map_batches(explode, batch_format="pyarrow"),
        bucket1,
        key="w1",
        n_buckets=n_buckets,
    )
    cand = map_keyed(
        pass1, bucket2, key="w2", n_buckets=n_buckets
    ).take_all()
    cand.sort(key=lambda r: (-r["pmi_q"], r["w1"], r["w2"]))
    cand = cand[:k]
    return ray.data.from_arrow(
        pa.table(
            {
                "w1": pa.array([r["w1"] for r in cand], pa.string()),
                "w2": pa.array([r["w2"] for r in cand], pa.string()),
                "c2": pa.array([r["c2"] for r in cand], pa.int64()),
                "pmi_q": pa.array(
                    [r["pmi_q"] for r in cand], pa.int64()
                ),
            }
        )
    )


def vocab_overlap(
    ds,
    class_col: str = "source",
    text_col: str = "text",
    n_buckets: int = 64,
):
    """Pairwise vocabulary Jaccard between classes: for every class
    pair ``a < b`` (label order) with at least one shared token,
    ``n_common = |V_a intersect V_b|``, ``n_union = |V_a| + |V_b| -
    n_common`` and their ratio -- the cheap corpus-diversity matrix
    read next to ``domain_kl`` when composing a domain mix (all
    integers plus one IEEE division, so the SQL mirror is exact).

    Scale shape: classes are bounded, vocabularies are not.  The
    batch explode emits DISTINCT (class, token) rows keyed by a
    token hash; a bucket group owns every class membership of its
    tokens, so the per-class sizes and the per-pair intersection
    counts are one boolean membership matrix and one ``M.T @ M``
    per bucket -- additive partials because a token lives in exactly
    ONE bucket.  The driver folds <= n_buckets x n_classes^2 partial
    rows; the corpus never shuffles, one (class, tok) shuffle total.
    """
    empty = pa.schema([("cls", pa.string()), ("tok", pa.string())])

    def explode(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(b.column(text_col).combine_chunks(), "")
        cls = pc.fill_null(b.column(class_col).combine_chunks(), "")
        flat, counts, _ = _token_tape(texts)
        if len(flat) == 0:
            return empty.empty_table()
        row_idx = np.repeat(
            np.arange(len(counts), dtype=np.int64), counts
        )
        pairs = (
            pa.table(
                {
                    "cls": pc.take(cls, pa.array(row_idx, pa.int64())),
                    "tok": flat,
                }
            )
            .group_by(["cls", "tok"])
            .aggregate([])
        )
        return pa.table(
            {"cls": pairs.column("cls"), "tok": pairs.column("tok")}
        )

    def overlap_in_bucket(tbl: pa.Table) -> pa.Table:
        # distinct (class, token) again -- batches may repeat pairs
        dd = (
            pa.table(
                {
                    "cls": tbl.column("cls").combine_chunks(),
                    "tok": tbl.column("tok").combine_chunks(),
                }
            )
            .group_by(["cls", "tok"])
            .aggregate([])
        )
        et = pc.dictionary_encode(dd.column("tok").combine_chunks())
        ec = pc.dictionary_encode(dd.column("cls").combine_chunks())
        tcode = et.indices.to_numpy(zero_copy_only=False)
        ccode = ec.indices.to_numpy(zero_copy_only=False)
        n_t, n_c = len(et.dictionary), len(ec.dictionary)
        m = np.zeros((n_t, n_c), bool)
        m[tcode, ccode] = True
        sizes = m.sum(0).astype(np.int64)
        inter = m.T.astype(np.int64) @ m.astype(np.int64)
        cls_names = ec.dictionary.to_pylist()
        out_a, out_b, out_n = [], [], []
        for i in range(n_c):
            for j in range(n_c):
                if i == j or cls_names[i] >= cls_names[j]:
                    continue
                if inter[i, j]:
                    out_a.append(cls_names[i])
                    out_b.append(cls_names[j])
                    out_n.append(int(inter[i, j]))
        return pa.table(
            {
                "cls_a": pa.array(out_a + cls_names, pa.string()),
                "cls_b": pa.array(
                    out_b + [""] * n_c, pa.string()
                ),
                "n": pa.array(
                    out_n + [int(s) for s in sizes], pa.int64()
                ),
                "kind": pa.array(
                    [1] * len(out_a) + [0] * n_c, pa.int8()
                ),
            }
        )

    import ray.data

    sizes: dict[str, int] = {}
    inter: dict[tuple, int] = {}
    for tbl in map_keyed(
        ds.map_batches(explode, batch_format="pyarrow"),
        overlap_in_bucket,
        key="tok",
        n_buckets=n_buckets,
    ).iter_batches(batch_format="pyarrow"):
        for a, b_, n, kd in zip(
            tbl.column("cls_a").to_pylist(),
            tbl.column("cls_b").to_pylist(),
            tbl.column("n").to_pylist(),
            tbl.column("kind").to_pylist(),
        ):
            if kd == 0:
                sizes[a] = sizes.get(a, 0) + int(n)
            else:
                inter[(a, b_)] = inter.get((a, b_), 0) + int(n)
    rows = sorted(inter)
    n_common = np.array([inter[p] for p in rows], np.int64)
    n_union = np.array(
        [sizes[a] + sizes[b_] - inter[(a, b_)] for a, b_ in rows],
        np.int64,
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "src_a": pa.array([p[0] for p in rows], pa.string()),
                "src_b": pa.array([p[1] for p in rows], pa.string()),
                "n_common": pa.array(n_common, pa.int64()),
                "n_union": pa.array(n_union, pa.int64()),
                "jaccard": pa.array(
                    n_common.astype(np.float64)
                    / n_union.astype(np.float64),
                    pa.float64(),
                ),
            }
        )
    )


def mutual_info(
    ds,
    col_x: str = "lang",
    col_y: str = "source",
    scale: int = 1_000_000,
):
    """Pointwise mutual information between two categorical columns --
    the association profile (which languages concentrate in which
    sources) behind stratification decisions, in the family's integer
    micro-nat quantization: each observed cell gets ``pmi_q =
    floor((ln(c_xy) + ln(N) - ln(c_x) - ln(c_y)) * scale)`` with
    ``math.log`` (libm == DuckDB ``ln``) and the identical expression
    tree, so the SQL mirror is bit-exact; total MI in nats is
    ``sum(c_xy * pmi_q) / (scale * N)`` on either side.

    Scale shape: per-block Arrow ``group_by`` reduces raw rows to
    (x, y, count) partials BOUNDED by the cell count -- the operator's
    stated contract is categorical columns (cells = |X| x |Y|, not
    rows) -- and the driver folds blocks x cells tiny rows (the
    domain_kl pattern: a Ray groupby here would pay a full all-to-all
    for a few hundred rows).  Marginals derive from the folded cells;
    zero shuffles, one streaming pass.
    """
    import math

    from collections import Counter

    def partials(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                col_x: pc.fill_null(
                    b.column(col_x).combine_chunks(), ""
                ),
                col_y: pc.fill_null(
                    b.column(col_y).combine_chunks(), ""
                ),
            }
        )
        return t.group_by([col_x, col_y]).aggregate(
            [([], "count_all")]
        )

    cells: Counter = Counter()
    for r in ds.map_batches(
        partials, batch_format="pyarrow"
    ).take_all():
        cells[(r[col_x], r[col_y])] += int(r["count_all"])
    n = sum(cells.values())
    cx: Counter = Counter()
    cy: Counter = Counter()
    for (x, y), c in cells.items():
        cx[x] += c
        cy[y] += c
    xs, ys, cxy_l, cx_l, cy_l, pmi_l = [], [], [], [], [], []
    for (x, y), c in sorted(cells.items()):
        xs.append(x)
        ys.append(y)
        cxy_l.append(c)
        cx_l.append(cx[x])
        cy_l.append(cy[y])
        pmi_l.append(
            int(
                math.floor(
                    (
                        math.log(float(c))
                        + math.log(float(n))
                        - math.log(float(cx[x]))
                        - math.log(float(cy[y]))
                    )
                    * float(scale)
                )
            )
        )
    return pa.table(
        {
            col_x: pa.array(xs, pa.string()),
            col_y: pa.array(ys, pa.string()),
            "c_xy": pa.array(cxy_l, pa.int64()),
            "c_x": pa.array(cx_l, pa.int64()),
            "c_y": pa.array(cy_l, pa.int64()),
            "n": pa.array([n] * len(xs), pa.int64()),
            "pmi_q": pa.array(pmi_l, pa.int64()),
        }
    )


# Variable-field masks for log-template mining, applied in order:
# hex literals before bare numbers (else ``0x1f`` leaves ``0x<N>f``),
# UUIDs before bare numbers for the same reason.  RE2 syntax on both
# sides, so the DuckDB oracle states the identical chain.
DEFAULT_TEMPLATE_MASKS = (
    (r"0x[0-9a-fA-F]+", "<HEX>"),
    (
        r"\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}"
        r"-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\b",
        "<UUID>",
    ),
    (r"[0-9]+", "<N>"),
)


def log_templates(
    ds,
    k: int = 50,
    text_col: str = "text",
    masks=DEFAULT_TEMPLATE_MASKS,
):
    """Log template mining (Drain-style, deterministic): explode each
    document into newline-split non-empty lines, mask the variable
    fields (hex ids, UUIDs, numbers) with an ordered RE2 replace
    chain, and return the ``k`` most frequent resulting templates with
    their counts and a deterministic example line (the lexicographic
    minimum of the raw lines that produced the template) -- the
    standard first pass of log analytics (template extraction a la He
    et al.'s Drain), reduced to an exact, oracle-checkable rule.

    Scale shape mirrors ``ngram_topk``: the line explosion lives only
    inside one batch; masking is a vectorized ``replace_substring_regex``
    chain over the exploded lines; each block pre-combines to one
    (template, partial-count, partial-min-example) row per distinct
    template, so the shuffle moves one row per distinct template per
    block, never one per line; a single groupby fold + exact
    block-local top-k reduction + one small sort yield the global
    top-k, ties by template ascending.
    """

    def partial(batch: pa.Table) -> pa.Table:
        lines = pc.split_pattern(
            pc.fill_null(batch.column(text_col).combine_chunks(), ""),
            pattern="\n",
        )
        flat = lines.flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        tmpl = flat
        for pat, repl in masks:
            tmpl = pc.replace_substring_regex(
                tmpl, pattern=pat, replacement=repl
            )
        g = (
            pa.table({"template": tmpl, "line": flat})
            .group_by(["template"])
            .aggregate([([], "count_all"), ("line", "min")])
        )
        return pa.table(
            {
                "template": g.column("template"),
                "n_partial": g.column("count_all").cast(pa.int64()),
                "ex_partial": g.column("line_min"),
            }
        )

    from ray.data.aggregate import Min, Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("template")
        .aggregate(Sum("n_partial"), Min("ex_partial"))
    )

    def local_topk(tbl: pa.Table) -> pa.Table:
        # exact reduction (see ngram_topk): a row outside its block's
        # top-k cannot be in the global top-k
        t = pa.table(
            {
                "template": tbl.column("template"),
                "n": tbl.column("sum(n_partial)"),
                "example": tbl.column("min(ex_partial)"),
            }
        )
        idx = pc.sort_indices(
            t,
            sort_keys=[("n", "descending"), ("template", "ascending")],
        )
        return t.take(idx[:k])

    return (
        agg.map_batches(local_topk, batch_format="pyarrow")
        .sort(["n", "template"], descending=[True, False])
        .limit(k)
    )


def stitch_multiline(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Multiline log-record assembly: split each document into
    newline-separated lines and stitch CONTINUATION lines (those
    starting with a space or tab -- the stack-trace / wrapped-payload
    convention) onto the preceding record.  One output row per record:
    the document id, the record's ordinal within the document
    (``rec_idx``, 1-based; a document whose first line is itself a
    continuation yields a leading record 0), the stitched text (lines
    re-joined with newlines) and its line count.

    Scale shape: a stateless ``map_batches`` -- each document's lines
    live in one row, so the explode, the record-id cumsum over the
    line starts and the per-record re-join are all batch-local numpy /
    pandas kernels; no shuffle, nothing leaves the task but the
    stitched records.
    """
    import pandas as pd

    def fn(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "rec_idx": pa.array([], pa.int64()),
                    "rec_text": pa.array([], pa.string()),
                    "n_lines": pa.array([], pa.int64()),
                }
            )
        ids = batch.column(id_col).cast(pa.int64())
        lines = pc.split_pattern(
            pc.fill_null(batch.column(text_col).combine_chunks(), ""),
            pattern="\n",
        )
        flat = lines.flatten()
        counts = pc.list_value_length(lines).to_numpy(
            zero_copy_only=False
        )
        row_idx = np.repeat(np.arange(len(batch)), counts)
        is_cont = pc.match_substring_regex(
            flat, pattern=r"^[\t ]"
        ).to_numpy(zero_copy_only=False)
        # record id = running count of record-start lines per document
        starts = (~is_cont).astype(np.int64)
        cum = np.cumsum(starts)
        # cum value just before each document's first line (split of a
        # string always yields >= 1 line, so every doc owns a segment)
        ends = np.cumsum(counts)
        prev = np.concatenate(([0], cum[ends[:-1] - 1]))
        rec = cum - np.repeat(prev, counts)
        df = pd.DataFrame(
            {
                "i": row_idx,
                "rec": rec,
                "line": flat.to_pandas().to_numpy(),
            }
        )
        g = df.groupby(["i", "rec"], sort=True)
        joined = g["line"].agg("\n".join)
        n_lines = g.size()
        ii = joined.index.get_level_values("i").to_numpy()
        return pa.table(
            {
                id_col: ids.take(pa.array(ii, pa.int64())),
                "rec_idx": pa.array(
                    joined.index.get_level_values("rec").to_numpy(),
                    pa.int64(),
                ),
                "rec_text": pa.array(joined.to_numpy(), pa.string()),
                "n_lines": pa.array(n_lines.to_numpy(), pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def phrase_search(
    ds,
    phrase: str,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Exact token-phrase search: per document, how many positions
    start an exact token-sequence match of ``phrase`` (OVERLAPPING
    occurrences count -- ``a a a`` holds two ``a a`` hits), under the
    shared RE2 ``\\S+`` tokenization; documents with zero hits are
    dropped.  The retrieval primitive a bag-of-words index cannot
    answer (term adjacency), stated as an n-gram equality so the SQL
    mirror is exact.

    Scale shape: fully batch-local -- a document's tokens live in its
    own row, so the phrase match is ONE vectorized gram tape
    (``_ngram_tape``) + one ``pc.equal`` + one bincount per batch;
    no shuffle, no index build, no per-row Python.
    """
    terms = ascii_tokens(phrase)
    if not terms:
        raise ValueError("phrase_search: empty phrase")
    n = len(terms)
    target = " ".join(terms)

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64())
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        doc_idx, grams = _ngram_tape(texts, n)
        hit = pc.equal(grams, target).to_numpy(zero_copy_only=False)
        counts = np.bincount(
            doc_idx[hit], minlength=len(batch)
        ).astype(np.int64)
        keep = counts > 0
        return pa.table(
            {
                id_col: ids.filter(pa.array(keep)),
                "n_hits": pa.array(counts[keep], pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def mlm_mask(
    ds,
    rate_pct: int = 15,
    mask_token: str = "<MASK>",
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Deterministic MLM-style corruption: mask every token whose
    md5-PRF over ``(doc_id, position)`` falls under ``rate_pct`` --
    the masked-language-model sample preparation step, made
    re-run-stable (no RNG) and SQL-mirrorable by hashing the document
    id and token ordinal, never the token text (so mask positions are
    independent of content, as sampling should be).

    Rule: token ``j`` (1-based) of document ``d`` is masked iff
    ``('0x' || substr(md5(d || ':' || j), 1, 8))::int % 100 <
    rate_pct``.  Output per document: the corrupted text (tokens
    re-joined with single spaces), the pipe-joined masked tokens in
    order (the MLM labels), and ``n_masked``.

    Scale shape: stateless per-batch -- one token tape, one vectorized
    md5 over the (id, ordinal) pairs, two ``pc.binary_join`` rebuilds;
    no shuffle, no state.
    """
    import hashlib

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64())
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        flat, counts, new_off = _token_tape(texts)
        doc_of = np.repeat(
            ids.to_numpy(zero_copy_only=False), counts
        )
        total = int(counts.sum())
        ordinal = np.arange(total, dtype=np.int64) - np.repeat(
            new_off[: len(counts)], counts
        ) + 1
        # vectorized-enough md5 PRF: one digest per token of the
        # batch over small ascii keys (C speed, no Python parsing)
        keys = np.char.add(
            np.char.add(doc_of.astype("U20"), ":"),
            ordinal.astype("U20"),
        )
        masked = np.fromiter(
            (
                int(hashlib.md5(k.encode()).hexdigest()[:8], 16) % 100
                < rate_pct
                for k in keys
            ),
            dtype=bool,
            count=total,
        )
        out_tok = pc.if_else(
            pa.array(masked), pa.scalar(mask_token, pa.string()), flat
        )
        off32 = pa.array(
            np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        )
        corrupted = pc.binary_join(
            pa.ListArray.from_arrays(off32, out_tok), " "
        )
        # labels: the masked tokens of each doc, in order
        lab_counts = np.bincount(
            np.repeat(np.arange(len(counts)), counts)[masked],
            minlength=len(counts),
        )
        lab_off = pa.array(
            np.concatenate([[0], np.cumsum(lab_counts)]).astype(
                np.int32
            )
        )
        labels = pc.binary_join(
            pa.ListArray.from_arrays(lab_off, flat.filter(pa.array(masked))),
            "|",
        )
        return pa.table(
            {
                id_col: ids,
                "corrupted": corrupted,
                "labels": labels,
                "n_masked": pa.array(
                    lab_counts.astype(np.int64), pa.int64()
                ),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def vocab_growth(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_checkpoints: int = 10,
    n_buckets: int = 64,
):
    """Vocabulary-growth (Heaps'-law) curve: at each of
    ``n_checkpoints`` doc-id checkpoints, the cumulative token count
    and cumulative DISTINCT-type count over all documents with id <=
    the checkpoint -- the corpus diagnostic behind "is more data still
    adding new vocabulary", and the empirical V(N) ~ K*N^beta fit
    input.

    Checkpoints are ``(k * max_id) // n_checkpoints`` for k = 1..n,
    so both sides derive them from the data deterministically.

    Scale shape: the shared ``_explode_tok_occ`` front half compresses
    each block to distinct (doc, token, n_occ) rows bucketed by token
    hash; each bucket derives per-token first-occurrence ids and folds
    BOTH curves to ``n_checkpoints`` partial rows (searchsorted over
    the bucket's sorted first-ids / doc-ordered occurrence cumsum), so
    the final groupby sees buckets x checkpoints tiny rows.  The one
    driver-side scalar is ``max(doc_id)``.
    """
    from ray.data.aggregate import Sum

    mx = int(ds.max(id_col))
    cks = [
        (k * mx) // n_checkpoints for k in range(1, n_checkpoints + 1)
    ]
    cks_arr = np.array(cks, dtype=np.int64)

    def per_bucket(tbl: pa.Table) -> pa.Table:
        doc = tbl.column(id_col).to_numpy(zero_copy_only=False)
        occ = tbl.column("n_occ").to_numpy(zero_copy_only=False)
        toks = tbl.column("tok")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        enc = pc.dictionary_encode(toks)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        fd = np.full(len(enc.dictionary), np.iinfo(np.int64).max)
        np.minimum.at(fd, codes, doc)
        fd.sort()
        types_part = np.searchsorted(fd, cks_arr, side="right")
        order = np.argsort(doc, kind="stable")
        doc_sorted = doc[order]
        cum = np.cumsum(occ[order])
        pos = np.searchsorted(doc_sorted, cks_arr, side="right")
        occ_part = np.where(pos > 0, cum[pos - 1], 0)
        return pa.table(
            {
                "k": pa.array(
                    np.arange(1, n_checkpoints + 1, dtype=np.int64)
                ),
                "tok_part": pa.array(
                    occ_part.astype(np.int64), pa.int64()
                ),
                "typ_part": pa.array(
                    types_part.astype(np.int64), pa.int64()
                ),
            }
        )

    def finish(b: pa.Table) -> pa.Table:
        k = b.column("k").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": b.column("k"),
                "ck_doc": pa.array(cks_arr[k - 1], pa.int64()),
                "n_tokens": b.column("sum(tok_part)").cast(pa.int64()),
                "n_types": b.column("sum(typ_part)").cast(pa.int64()),
            }
        )

    return (
        _per_token(ds, per_bucket, text_col, id_col, n_buckets)
        .groupby("k")
        .aggregate(Sum("tok_part"), Sum("typ_part"))
        .map_batches(finish, batch_format="pyarrow")
    )


def readability_scores(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-document Flesch reading-ease scoring from three RE2 counts
    -- words (``\\S+`` runs), sentence terminators (``[.!?]+`` runs)
    and syllable proxies (vowel-group runs ``[aeiouyAEIOUY]+``) --
    the classic length/complexity quality signal a curation pipeline
    thresholds alongside the Gopher stats.

    score = 206.835 - 1.015*(words/sentences) - 84.6*(syllables/words)

    with ``sentences = max(1, terminator runs)`` (prose without
    punctuation is one sentence) and a NULL score for wordless
    documents.  The score is one float expression of three exact
    integer counts, evaluated with identical association on both
    sides, so the SQL mirror (``len(regexp_extract_all(...))``) is
    bit-identical.  Stateless vectorized ``map_batches`` -- three
    compiled-RE2 passes per batch, no shuffle, scales with the read.
    """

    def score(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(b.column(text_col), "")
        w = pc.cast(
            pc.count_substring_regex(texts, _TOKEN_RE), pa.int64()
        ).to_numpy(zero_copy_only=False)
        s = pc.cast(
            pc.count_substring_regex(texts, r"[.!?]+"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        y = pc.cast(
            pc.count_substring_regex(texts, r"[aeiouyAEIOUY]+"),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        s1 = np.maximum(s, np.int64(1))
        with np.errstate(divide="ignore", invalid="ignore"):
            fl = (
                206.835
                - 1.015 * (w.astype(np.float64) / s1.astype(np.float64))
                - 84.6 * (y.astype(np.float64) / w.astype(np.float64))
            )
        flesch = pc.if_else(
            pa.array(w > 0, pa.bool_()),
            pa.array(np.where(w > 0, fl, 0.0), pa.float64()),
            pa.scalar(None, pa.float64()),
        )
        return pa.table(
            {
                id_col: b.column(id_col),
                "n_words": pa.array(w, pa.int64()),
                "n_sentences": pa.array(s1.astype(np.int64), pa.int64()),
                "n_syllables": pa.array(y, pa.int64()),
                "flesch": flesch,
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def log_odds_tokens(
    ds,
    group_col: str = "source",
    group_a: str = "src1",
    text_col: str = "text",
    k: int = 50,
    n_buckets: int = 64,
):
    """Monroe-style weighted log-odds with an informative Dirichlet
    prior (Monroe, Colaresi & Quinn 2008, "Fightin' Words"): which
    tokens are most distinctive of group A (``group_col ==
    group_a``) vs the rest, with the WHOLE CORPUS as the prior so
    rare tokens don't dominate the way raw log-odds ratios do.

    Per token w (y_a/y_b group counts, n_a/n_b group totals, prior
    alpha_w = corpus count, alpha_0 = corpus total):

        delta = ln(y_a + a_w) - ln(n_a + a_0 - y_a - a_w)
              - ln(y_b + a_w) + ln(n_b + a_0 - y_b - a_w)
        z     = delta / sqrt(1/(y_a + a_w) + 1/(y_b + a_w))

    Every log/sqrt argument is an exact int64, ``ln`` is libm
    ``math.log`` evaluated once per DISTINCT argument (== DuckDB
    ``ln``), the expression tree is identical left-to-right on both
    sides, and the top-k cut orders by (z DESC, token ASC).

    Scale shape: pass 1 folds the two group token totals from
    per-block partials (2 numbers).  Pass 2 is the shared token-hash
    bucket front half with the group flag carried: a bucket owns
    every occurrence row of its tokens, so y_a, y_b AND the prior
    alpha_w are bucket-local; each bucket emits only its local top-k
    and the driver merges <= n_buckets x k candidates.  One shuffle,
    over (flag, tok, n_occ) post-aggregation rows.
    """

    def flagged(b: pa.Table) -> pa.Table:
        src = pc.fill_null(b.column(group_col).combine_chunks(), "")
        flag = pc.cast(
            pc.equal(src, pa.scalar(group_a)), pa.int64()
        )
        return pa.table(
            {"ga": flag, text_col: b.column(text_col)}
        )

    def group_part(b: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(
            pc.fill_null(b.column(text_col), ""), _TOKEN_RE
        ).cast(pa.int64())
        g = (
            pa.table({"ga": b.column("ga"), "n": n})
            .group_by("ga")
            .aggregate([("n", "sum")])
        )
        return g

    flagged_ds = ds.map_batches(flagged, batch_format="pyarrow")
    n_a = n_b = 0
    for tbl in flagged_ds.map_batches(
        group_part, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        for ga, n in zip(
            tbl.column("ga").to_pylist(), tbl.column("n_sum").to_pylist()
        ):
            if int(ga) == 1:
                n_a += int(n)
            else:
                n_b += int(n)
    a0 = n_a + n_b
    if a0 == 0:
        raise ValueError("log_odds_tokens: corpus has no tokens")

    def topk_in_bucket(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(["ga", "tok"]).aggregate([("n_occ", "sum")])
        ga = agg.column("ga").to_numpy(zero_copy_only=False)
        cnt = agg.column("n_occ_sum").to_numpy(zero_copy_only=False)
        enc = pc.dictionary_encode(agg.column("tok").combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        n_tok = len(enc.dictionary)
        ya = np.zeros(n_tok, np.int64)
        yb = np.zeros(n_tok, np.int64)
        np.add.at(ya, codes[ga == 1], cnt[ga == 1])
        np.add.at(yb, codes[ga == 0], cnt[ga == 0])
        aw = ya + yb
        x1 = ya + aw
        x2 = n_a + a0 - ya - aw
        x3 = yb + aw
        x4 = n_b + a0 - yb - aw
        args = np.unique(np.concatenate([x1, x2, x3, x4]))
        ln_map = np.array(
            [math.log(float(v)) for v in args], np.float64
        )

        def ln(x):
            return ln_map[np.searchsorted(args, x)]

        z = (ln(x1) - ln(x2) - ln(x3) + ln(x4)) / np.sqrt(
            1.0 / x1.astype(np.float64) + 1.0 / x3.astype(np.float64)
        )
        toks = np.asarray(enc.dictionary.to_pylist())
        order = np.lexsort((toks, -z))[:k]
        return pa.table(
            {
                "tok": pa.array(toks[order].tolist(), pa.string()),
                "y_a": pa.array(ya[order], pa.int64()),
                "y_b": pa.array(yb[order], pa.int64()),
                "z": pa.array(z[order], pa.float64()),
            }
        )

    cands = _per_token(
        flagged_ds, topk_in_bucket, text_col, "ga", n_buckets
    ).take_all()  # <= n_buckets x k rows
    cands.sort(key=lambda r: (-r["z"], r["tok"]))
    cands = cands[:k]
    return pa.table(
        {
            "tok": pa.array([r["tok"] for r in cands], pa.string()),
            "y_a": pa.array([r["y_a"] for r in cands], pa.int64()),
            "y_b": pa.array([r["y_b"] for r in cands], pa.int64()),
            "z": pa.array([r["z"] for r in cands], pa.float64()),
        }
    )


def token_burstiness(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_df: int = 5,
    k: int = 50,
    n_buckets: int = 64,
):
    """Church-Gale token burstiness: occurrences-per-document-
    containing (occ / df) for every token with df >= ``min_df``,
    top-k -- the "which words clump" readout (function words score
    ~occ/df near their per-doc rate; topical words concentrate and
    score high), used to pick candidate keyterms and stop-lists.

    occ and df are exact bucket-local integers on the shared
    token-hash front half (every (doc, token) row of a token lands
    in one bucket); the ratio is ONE float division per token and
    the cut orders by (ratio DESC, token ASC), each bucket emitting
    only its local top-k.
    """

    def topk_in_bucket(tbl: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(tbl.column("tok").combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        n_tok = len(enc.dictionary)
        df = np.bincount(codes, minlength=n_tok).astype(np.int64)
        occ = np.zeros(n_tok, np.int64)
        np.add.at(
            occ,
            codes,
            tbl.column("n_occ").to_numpy(zero_copy_only=False),
        )
        keep = df >= min_df
        if not keep.any():
            return pa.table(
                {
                    "tok": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "occ": pa.array([], pa.int64()),
                    "burst": pa.array([], pa.float64()),
                }
            )
        df, occ = df[keep], occ[keep]
        toks = np.asarray(enc.dictionary.to_pylist())[keep]
        burst = occ.astype(np.float64) / df.astype(np.float64)
        order = np.lexsort((toks, -burst))[:k]
        return pa.table(
            {
                "tok": pa.array(toks[order].tolist(), pa.string()),
                "df": pa.array(df[order], pa.int64()),
                "occ": pa.array(occ[order], pa.int64()),
                "burst": pa.array(burst[order], pa.float64()),
            }
        )

    cands = _per_token(
        ds, topk_in_bucket, text_col, id_col, n_buckets
    ).take_all()
    cands.sort(key=lambda r: (-r["burst"], r["tok"]))
    cands = cands[:k]
    return pa.table(
        {
            "tok": pa.array([r["tok"] for r in cands], pa.string()),
            "df": pa.array([r["df"] for r in cands], pa.int64()),
            "occ": pa.array([r["occ"] for r in cands], pa.int64()),
            "burst": pa.array(
                [r["burst"] for r in cands], pa.float64()
            ),
        }
    )


def ttr_by_source(
    ds,
    class_col: str = "source",
    text_col: str = "text",
    n_buckets: int = 64,
):
    """Type-token ratio per source: distinct token types / token
    occurrences -- the lexical-diversity screen (template-generated
    or boilerplate-heavy sources pin a low TTR; diverse prose sits
    high).  Exact integers; the ratio is one float division.

    Scale shape: pass 1 folds the bounded class list (the
    ``domain_kl`` recipe) and broadcasts class ids; pass 2 is the
    shared token-hash bucket front half with the class id carried --
    a bucket owns every (class, token) row of its tokens, so the
    per-class DISTINCT-TYPE count is a bucket-local partial, and the
    per-class folds are <= n_buckets x n_classes tiny rows.
    """
    classes = _classes(ds, class_col)

    def per_bucket(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(["cid", "tok"]).aggregate(
            [("n_occ", "sum")]
        )
        cid = agg.column("cid").to_numpy(zero_copy_only=False)
        occ = agg.column("n_occ_sum").to_numpy(zero_copy_only=False)
        n_cls = len(classes)
        types = np.bincount(cid, minlength=n_cls).astype(np.int64)
        toks = np.zeros(n_cls, np.int64)
        np.add.at(toks, cid, occ)
        nz = np.flatnonzero(types > 0)
        return pa.table(
            {
                "cid": pa.array(nz, pa.int64()),
                "ty_p": pa.array(types[nz], pa.int64()),
                "tk_p": pa.array(toks[nz], pa.int64()),
            }
        )

    n_types = np.zeros(len(classes), np.int64)
    n_toks = np.zeros(len(classes), np.int64)
    for tbl in _per_class_token(
        ds, per_bucket, class_col, text_col, classes, n_buckets
    ).iter_batches(batch_format="pyarrow"):
        ci = tbl.column("cid").to_numpy(zero_copy_only=False)
        np.add.at(
            n_types, ci, tbl.column("ty_p").to_numpy(
                zero_copy_only=False
            )
        )
        np.add.at(
            n_toks, ci, tbl.column("tk_p").to_numpy(
                zero_copy_only=False
            )
        )
    keep = n_toks > 0
    return pa.table(
        {
            "source": pa.array(
                [c for c, k in zip(classes, keep) if k], pa.string()
            ),
            "n_tokens": pa.array(n_toks[keep], pa.int64()),
            "n_types": pa.array(n_types[keep], pa.int64()),
            "ttr": pa.array(
                n_types[keep].astype(np.float64)
                / n_toks[keep].astype(np.float64),
                pa.float64(),
            ),
        }
    )


def hapax_by_source(
    ds,
    class_col: str = "source",
    text_col: str = "text",
    n_buckets: int = 64,
):
    """Hapax-legomena share per source: of a source's distinct token
    types, how many occur exactly once -- the long-tail/diversity
    screen that complements :func:`ttr_by_source` (template spam has
    few hapaxes; scraped prose has many).  Exact integers; the ratio
    is one float division.

    Same scale shape as ``ttr_by_source``: bounded class list folded
    and broadcast, then the token-hash bucket front half -- a bucket
    owns EVERY occurrence row of its tokens per class, so both the
    per-class type count and the per-class hapax count (total
    occurrences == 1) are bucket-local partials.
    """
    classes = _classes(ds, class_col)

    def per_bucket(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(["cid", "tok"]).aggregate(
            [("n_occ", "sum")]
        )
        cid = agg.column("cid").to_numpy(zero_copy_only=False)
        occ = agg.column("n_occ_sum").to_numpy(zero_copy_only=False)
        n_cls = len(classes)
        types = np.bincount(cid, minlength=n_cls).astype(np.int64)
        hapax = np.bincount(
            cid[occ == 1], minlength=n_cls
        ).astype(np.int64)
        nz = np.flatnonzero(types > 0)
        return pa.table(
            {
                "cid": pa.array(nz, pa.int64()),
                "ty_p": pa.array(types[nz], pa.int64()),
                "hx_p": pa.array(hapax[nz], pa.int64()),
            }
        )

    n_types = np.zeros(len(classes), np.int64)
    n_hapax = np.zeros(len(classes), np.int64)
    for tbl in _per_class_token(
        ds, per_bucket, class_col, text_col, classes, n_buckets
    ).iter_batches(batch_format="pyarrow"):
        ci = tbl.column("cid").to_numpy(zero_copy_only=False)
        np.add.at(
            n_types, ci,
            tbl.column("ty_p").to_numpy(zero_copy_only=False),
        )
        np.add.at(
            n_hapax, ci,
            tbl.column("hx_p").to_numpy(zero_copy_only=False),
        )
    keep = n_types > 0
    return pa.table(
        {
            "source": pa.array(
                [c for c, k in zip(classes, keep) if k], pa.string()
            ),
            "n_types": pa.array(n_types[keep], pa.int64()),
            "n_hapax": pa.array(n_hapax[keep], pa.int64()),
            "hapax_ratio": pa.array(
                n_hapax[keep].astype(np.float64)
                / n_types[keep].astype(np.float64),
                pa.float64(),
            ),
        }
    )


def zipf_slope(ds, text_col: str = "text", k: int = 1000):
    """Zipf-law fit over the corpus token-frequency distribution: OLS
    slope/intercept/R^2 of ln(freq) against ln(rank) for the exact
    top-``k`` tokens (ties broken by token ascending) -- natural text
    sits near slope -1; template/boilerplate corpora flatten it.

    Scale shape: per-block token-count partials (the ``ngram_topk``
    recipe for unigrams: the shuffle moves one row per distinct token
    per block), one groupby-sum, a per-block exact local-top-k
    reduction, then a bounded k-row driver finish.  Both lns are
    quantized to integer micro-nats BEFORE any product (the
    ``js``/``ols_trend`` determinism recipe), so every sufficient
    statistic is an exact integer and the SQL mirror's HUGEINT/DOUBLE
    tree is bit-identical.
    """
    import math

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(
            batch.column(text_col).combine_chunks(), ""
        )
        flat = pc.split_pattern_regex(texts, pattern=r"\s+").flatten()
        g = (
            pa.table({"tok": flat})
            .filter(pc.not_equal(flat, ""))
            .group_by(["tok"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "tok": g.column("tok"),
                "n_partial": g.column("count_all").cast(pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(Sum("n_partial"))
    )

    def local_topk(tbl: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "tok": tbl.column("tok"),
                "n": tbl.column("sum(n_partial)"),
            }
        )
        idx = pc.sort_indices(
            t, sort_keys=[("n", "descending"), ("tok", "ascending")]
        )
        return t.take(idx[:k])

    rows = (
        agg.map_batches(local_topk, batch_format="pyarrow")
        .sort(["n", "tok"], descending=[True, False])
        .limit(k)
        .take_all()
    )  # bounded: k rows
    n = len(rows)
    sx = sy = sxy = sxx = syy = 0
    for rank, r in enumerate(rows, start=1):
        x = math.floor(math.log(float(rank)) * 1_000_000.0)
        y = math.floor(math.log(float(int(r["n"]))) * 1_000_000.0)
        sx += x
        sy += y
        sxy += x * y
        sxx += x * x
        syy += y * y
    num = n * sxy - sx * sy
    denx = n * sxx - sx * sx
    deny = n * syy - sy * sy
    slope = float(num) / float(denx) if denx > 0 else None
    intercept = (
        (float(sy) - float(num) / float(denx) * float(sx)) / float(n)
        if denx > 0
        else None
    )
    r2 = (
        float(num) * float(num) / (float(denx) * float(deny))
        if denx > 0 and deny > 0
        else None
    )
    return pa.table(
        {
            "n_ranks": pa.array([n], pa.int64()),
            "slope": pa.array([slope], pa.float64()),
            "intercept_micro_nats": pa.array(
                [intercept], pa.float64()
            ),
            "r2": pa.array([r2], pa.float64()),
        }
    )


def ppl_tercile_buckets(
    ds,
    source_col: str = "source",
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
    scale: int = 1_000_000,
    coarse: int = 1_000,
    max_hist: int = 2_000_000,
):
    """CCNet-style perplexity bucketing: score every document with
    the corpus's own unigram LM (:func:`unigram_logprob`), then split
    each source into head / middle / tail terciles of
    milli-nats-per-token and count the docs per bucket -- the
    standard quality stratification applied before sampling training
    data (head = most fluent third under the LM).

    Exactness: the per-doc score is ``trunc(logprob_q /
    (coarse * n_tokens))`` -- integer micro-nat sums divided with the
    SAME truncating semantics as DuckDB's ``//`` (sign * magnitude
    division; Python's floor ``//`` differs on negatives) -- so the
    (source, score) histogram is exact ints, and the tercile cut
    points apply the ``percentile_disc`` rule (smallest value with
    cumulative count >= ceil(q*n)) to that histogram.  Bucket counts
    are then histogram-range sums, all integers.

    Scale shape: one unigram-LM pass (token-hash bucket groups, see
    :func:`unigram_logprob`), one (source, score) groupby whose
    volume is bounded by sources x the COARSENED score range
    (milli-nats-per-token spans a few thousand values regardless of
    corpus size; ``max_hist`` guards), and a driver fold of the tiny
    histogram.  The corpus is never collected and no second text
    pass runs.
    """
    from ray.data.aggregate import Sum

    lp = unigram_logprob(
        ds.select_columns([id_col, text_col]),
        text_col=text_col,
        id_col=id_col,
        n_buckets=n_buckets,
        scale=scale,
    ).select_columns([id_col, "n_tokens", "logprob_q"])
    from .relational import hash_join

    src = ds.select_columns([id_col, source_col])
    joined = hash_join(
        lp,
        src,
        on=id_col,
        left_schema=pa.schema(
            [
                (id_col, pa.int64()),
                ("n_tokens", pa.int64()),
                ("logprob_q", pa.int64()),
            ]
        ),
    )

    def score_part(b: pa.Table) -> pa.Table:
        lpq = b.column("logprob_q").to_numpy(zero_copy_only=False)
        n = b.column("n_tokens").to_numpy(zero_copy_only=False)
        den = coarse * n
        # DuckDB // truncates toward zero; numpy // floors -- match
        # the SQL by dividing magnitudes and restoring the sign
        q = np.sign(lpq) * (np.abs(lpq) // den)
        g = (
            pa.table(
                {
                    source_col: pc.fill_null(
                        b.column(source_col).cast(pa.string()), ""
                    ),
                    "score_q": pa.array(q, pa.int64()),
                }
            )
            .group_by([source_col, "score_q"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                source_col: g.column(source_col),
                "score_q": g.column("score_q"),
                "n_p": g.column("count_all").cast(pa.int64()),
            }
        )

    hist_ds = (
        joined.map_batches(score_part, batch_format="pyarrow")
        .groupby([source_col, "score_q"])
        .aggregate(Sum("n_p"))
        .materialize()
    )
    if hist_ds.count() > max_hist:
        raise ValueError(
            "ppl_tercile_buckets: (source, score) histogram exceeds "
            f"max_hist={max_hist}; raise `coarse`"
        )
    by_src: dict = {}
    for r in hist_ds.take_all():
        by_src.setdefault(r[source_col], []).append(
            (int(r["score_q"]), int(r["sum(n_p)"]))
        )
    srcs, buckets, counts = [], [], []
    for sk in sorted(by_src):
        pairs = sorted(by_src[sk])
        vals = [p[0] for p in pairs]
        cum = np.cumsum([p[1] for p in pairs])
        n = int(cum[-1])
        cuts = []
        for qq in (1.0 / 3.0, 2.0 / 3.0):
            # percentile_disc: smallest value with cum >= ceil(q*n)
            target = max(1, int(np.ceil(qq * n)))
            cuts.append(vals[int(np.searchsorted(cum, target))])
        t33, t66 = cuts
        n_tail = int(
            sum(c for v, c in pairs if v <= t33)
        )
        n_mid = int(
            sum(c for v, c in pairs if t33 < v <= t66)
        )
        n_head = n - n_tail - n_mid
        for bname, cnt in (
            ("tail", n_tail),
            ("middle", n_mid),
            ("head", n_head),
        ):
            if cnt:
                srcs.append(sk)
                buckets.append(bname)
                counts.append(cnt)
    return pa.table(
        {
            source_col: pa.array(srcs, pa.string()),
            "bucket": pa.array(buckets, pa.string()),
            "n_docs": pa.array(counts, pa.int64()),
        }
    )


RAKE_STOPWORDS = (
    "a an and are as at be by for from in is it of on or that the "
    "this to was were with"
).split()


def rake_keyphrases(
    ds,
    text_col: str = "text",
    stopwords=RAKE_STOPWORDS,
    top_k: int = 20,
    n_buckets: int = 64,
    scale: int = 1_000_000,
):
    """RAKE keyphrase extraction (Rose et al. 2010) over the corpus:
    candidate phrases are maximal runs of non-stopword words; each
    word scores ``deg/freq`` (degree = total length of phrases it
    appears in, frequency = occurrence count) and a phrase scores the
    sum of its words' scores -- the classic unsupervised "what is
    this corpus about" keyword surface.

    Normalization pipeline (RE2 on both sides -- Arrow kernels here,
    DuckDB regexp there, so the semantics are engine-identical):
    lowercase, collapse non-[a-z0-9] runs to a double space, wrap,
    barrier each stopword occurrence with ``|`` (the double-space
    encoding gives every stopword its own flanking spaces, so
    consecutive stopwords replace cleanly in one left-to-right
    pass), then extract ``[a-z0-9]+( {1,2}[a-z0-9]+)*`` runs and
    canonicalize internal spacing.

    Exactness: word scores are QUANTIZED to ``(deg * scale) // freq``
    (positive truncating integer division == DuckDB ``//``); a
    phrase's total over all its occurrences is an exact integer, and
    per-occurrence score / occurrence count recover exactly
    (``total % n_occ == 0`` by construction).  Output: ``top_k``
    phrases by (score_q DESC, phrase ASC) with occurrence counts --
    fully integer, no floats anywhere.

    Scale shape: phrase-word instance rows ride the token-hash
    bucket co-partition (every instance of a word in one group, so
    deg/freq are local bincounts -- no vocabulary table, no
    broadcast), then one ``groupby(phrase)`` partial+final sum and a
    global top-k sort of the phrase table.  Two shuffles, both
    bounded by corpus token volume; at 100 TB you would min-freq
    prune words inside the bucket group first.
    """
    from ray.data.aggregate import Count, Max, Sum

    stop_re = " (" + "|".join(stopwords) + ") "

    def explode(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(b.column(text_col).combine_chunks(), "")
        s = pc.utf8_lower(texts)
        s = pc.replace_substring_regex(s, "[^a-z0-9]+", "  ")
        s = pc.binary_join_element_wise(
            pa.array(["  "] * len(s), pa.string()),
            s,
            pa.array(["  "] * len(s), pa.string()),
            "",
        )
        s = pc.replace_substring_regex(s, stop_re, " | ")
        lists = pc.split_pattern(s, "|")
        flat = pc.utf8_trim_whitespace(lists.flatten())
        flat = flat.filter(pc.not_equal(flat, ""))
        phrases = pc.replace_substring_regex(flat, " +", " ")
        words = pc.split_pattern(phrases, " ")
        offsets = words.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        offsets = offsets - offsets[0]
        plen = np.diff(offsets)
        row_idx = np.repeat(
            np.arange(len(phrases), dtype=np.int64), plen
        )
        return pa.table(
            {
                "w": words.flatten(),
                "plen": pa.array(plen[row_idx], pa.int64()),
                "phrase": pc.take(
                    phrases, pa.array(row_idx, pa.int64())
                ),
            }
        )

    def score_in_bucket(tbl: pa.Table) -> pa.Table:
        # every instance of a word is in this group: freq/deg are
        # local scatter-adds, score_w = (deg * scale) // freq exact
        enc = pc.dictionary_encode(tbl.column("w").combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        plen = tbl.column("plen").to_numpy(zero_copy_only=False)
        freq = np.bincount(codes, minlength=len(enc.dictionary))
        deg = np.zeros(len(enc.dictionary), np.int64)
        np.add.at(deg, codes, plen)
        score_w = (deg * scale) // freq
        return pa.table(
            {
                "phrase": tbl.column("phrase"),
                "plen": tbl.column("plen"),
                "score_w": pa.array(score_w[codes], pa.int64()),
            }
        )

    def finish(b: pa.Table) -> pa.Table:
        total = b.column("sum(score_w)").to_numpy(
            zero_copy_only=False
        )
        n_wi = b.column("count()").to_numpy(zero_copy_only=False)
        plen = b.column("max(plen)").to_numpy(zero_copy_only=False)
        n_occ = n_wi // plen
        return pa.table(
            {
                "phrase": b.column("phrase"),
                "n_occ": pa.array(n_occ, pa.int64()),
                "score_q": pa.array(total // n_occ, pa.int64()),
            }
        )

    scored = (
        map_keyed(
            ds.map_batches(explode, batch_format="pyarrow"),
            score_in_bucket,
            key="w",
            n_buckets=n_buckets,
        )
        .groupby("phrase")
        .aggregate(Sum("score_w"), Count(), Max("plen"))
        .map_batches(finish, batch_format="pyarrow")
    )
    return scored.sort(
        ["score_q", "phrase"], descending=[True, False]
    ).limit(top_k)


def compress_ratio_by_source(
    ds,
    source_col: str = "source",
    text_col: str = "text",
    level: int = 6,
):
    """Deflate compressibility quality signal per source: total
    UTF-8 bytes in, total ``zlib.compress(level)`` bytes out, and
    the corpus-level ratio -- the Gopher-style boilerplate detector
    (highly compressible sources are template-heavy; near-1 ratios
    are high-entropy or already-compressed junk).

    No SQL engine exposes deflate, so this operator is checked
    rows-only by the driver and pinned by a pytest differential
    against direct ``zlib`` calls instead -- the same weaker-oracle
    class as the approximate ANN variants.  Determinism: zlib output
    is a pure function of (bytes, level, strategy) for a given zlib
    build, and byte COUNTS fold as exact integers; ``ratio`` is one
    float division.

    Scale shape: the per-document compression is the C-level kernel
    of a task-pool ``map_batches`` (the model-inference shape --
    the Python loop only dispatches into zlib); per-block (source,
    bytes) partials, one tiny groupby, zero data-plane shuffles.
    """
    import zlib

    from ray.data.aggregate import Sum

    def part(b: pa.Table) -> pa.Table:
        src = pc.fill_null(
            b.column(source_col).cast(pa.string()), ""
        ).to_pylist()
        texts = pc.fill_null(
            b.column(text_col).cast(pa.string()), ""
        ).to_pylist()
        import collections

        agg = collections.defaultdict(lambda: [0, 0, 0])
        for s, t in zip(src, texts):
            raw = t.encode("utf-8")
            a = agg[s]
            a[0] += 1
            a[1] += len(raw)
            a[2] += len(zlib.compress(raw, level))
        keys = sorted(agg)
        return pa.table(
            {
                "source": pa.array(keys, pa.string()),
                "n_p": pa.array(
                    [agg[k][0] for k in keys], pa.int64()
                ),
                "bi_p": pa.array(
                    [agg[k][1] for k in keys], pa.int64()
                ),
                "bo_p": pa.array(
                    [agg[k][2] for k in keys], pa.int64()
                ),
            }
        )

    def finish(b: pa.Table) -> pa.Table:
        bi = b.column("sum(bi_p)").to_numpy(zero_copy_only=False)
        bo = b.column("sum(bo_p)").to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                bi > 0,
                bo.astype(np.float64) / bi.astype(np.float64),
                np.nan,
            )
        return pa.table(
            {
                "source": b.column("source"),
                "n_docs": b.column("sum(n_p)").cast(pa.int64()),
                "bytes_in": pa.array(bi, pa.int64()),
                "bytes_out": pa.array(bo, pa.int64()),
                "ratio": pa.array(ratio, pa.float64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(part, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_p"), Sum("bi_p"), Sum("bo_p"))
        .map_batches(finish, batch_format="pyarrow")
    )


def vocab_coverage_curve(
    ds,
    cuts=(100, 1_000, 10_000),
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
):
    """Vocabulary-sizing curve: for each candidate vocab size k, the
    share of corpus token OCCURRENCES covered by the top-k tokens
    (by count, ties token-ascending) -- the readout that decides how
    big a tokenizer vocabulary actually needs to be before the OOV
    tail stops mattering (``vocab_oov`` scores documents against ONE
    chosen size; this sweeps the sizes).

    Exactness: per-bucket top-max(cuts) candidates (a token lives
    wholly in one hash bucket, so the global top-k is a subset of the
    union -- the ``vocab_oov`` candidate rule), driver fold of
    <= buckets x max(cuts) rows; covered counts are exact integer
    cumsums and ``coverage`` is one float division per cut.  Output:
    one row per cut (k, n_types_used, covered_occ, total_occ,
    coverage).
    """
    from ray.data.aggregate import Sum

    kmax = max(cuts)

    def count_part(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(b.column(text_col).combine_chunks(), "")
        lists = pc.split_pattern_regex(texts, pattern=r"\s+")
        flat = lists.flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        g = (
            pa.table({"tok": flat})
            .group_by(["tok"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "tok": g.column("tok"),
                "n_p": g.column("count_all").cast(pa.int64()),
            }
        )

    cand = map_keyed(
        ds.map_batches(count_part, batch_format="pyarrow"),
        lambda t: _top_tokens(t, "n_p", kmax),
        key="tok",
        n_buckets=n_buckets,
    ).take_all()
    # candidates are truncated per bucket, so the corpus total comes
    # from a dedicated tiny occurrence aggregate
    def tot_part(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(b.column(text_col).combine_chunks(), "")
        n = pc.sum(
            pc.count_substring_regex(texts, _TOKEN_RE), min_count=0
        ).as_py()
        return pa.table({"n": pa.array([int(n or 0)], pa.int64())})

    total = sum(
        int(r["n"])
        for r in ds.map_batches(
            tot_part, batch_format="pyarrow"
        ).take_all()
    )
    cand.sort(key=lambda r: (-int(r["c"]), r["tok"]))
    counts = [int(r["c"]) for r in cand]
    ks, used, covered, totals, cov = [], [], [], [], []
    cum = np.cumsum(counts) if counts else np.array([], np.int64)
    for k in sorted(cuts):
        kk = min(k, len(counts))
        c = int(cum[kk - 1]) if kk else 0
        ks.append(k)
        used.append(kk)
        covered.append(c)
        totals.append(total)
        cov.append(float(c) / float(total) if total else None)
    return pa.table(
        {
            "k": pa.array(ks, pa.int64()),
            "n_types_used": pa.array(used, pa.int64()),
            "covered_occ": pa.array(covered, pa.int64()),
            "total_occ": pa.array(totals, pa.int64()),
            "coverage": pa.array(cov, pa.float64()),
        }
    )
