"""Operator tests: dedup recall, knn exactness, sessionize, as-of join,
twebber alignment, multimodal plumbing, edit replay units."""

import numpy as np
import pyarrow as pa
import pytest

from console_log_parser_ray.vt.editline import EditLine


# ---------------------------------------------------------------------------
# EditLine unit semantics (distilled from reference testtermlog_1/2)
# ---------------------------------------------------------------------------


def _apply(text_events):
    el = EditLine()
    for ev in text_events:
        kind = ev[0]
        if kind == "t":
            el.put_text(ev[1])
        elif kind == "c":
            el.ctrl(ev[1])
        elif kind == "csi":
            el.csi(*ev[1:])
    return el.render()


def test_editline_backspace_erase():
    assert _apply([("t", "abcqq"), ("c", 8), ("c", 8), ("csi", "", "", "", "K")]) == "abc"


def test_editline_overwrite_after_back():
    out = _apply([("t", "abXdef"), ("c", 8), ("csi", "", "3", "", "D"),
                  ("t", "c"), ("csi", "", "3", "", "C")])
    assert out == "abcdef"


def test_editline_insert_blanks():
    assert _apply([("t", "ab"), ("c", 8), ("csi", "", "2", "", "@"), ("t", "xy")]) == "axyb"


def test_editline_delete_chars():
    out = _apply([("t", "azzbc"), ("c", 8), ("csi", "", "3", "", "D"),
                  ("csi", "", "2", "", "P")])
    assert out == "abc"


def test_editline_cr_overwrite():
    assert _apply([("t", "hello"), ("c", 0x0D), ("t", "HELLO!")]) == "HELLO!"


def test_editline_erase_char():
    assert _apply([("t", "abcd"), ("c", 0x0D), ("csi", "", "2", "", "X")]) == "  cd"


def test_editline_prefix_bs_limits():
    el = EditLine()
    el.set_prefix_len(3)
    el.put_text("$ ls")
    for _ in range(10):
        el.ctrl(8)
    assert el.cur == -3  # stops at prefix start
    el.put_text("abc")  # consumed by the prefix (invisible)
    assert el.render() == "$ ls"
    el.put_text("X")  # now at position 0 again
    assert el.render() == "X ls"


# ---------------------------------------------------------------------------
# dedup
# ---------------------------------------------------------------------------


def _docs_table():
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(5000)]
    texts, ids = [], []
    for i in range(60):
        toks = [vocab[x] for x in rng.integers(0, len(vocab), 80)]
        texts.append(" ".join(toks))
        ids.append(i)
        # planted near-dup: drop 4 tokens
        toks2 = [t for j, t in enumerate(toks) if j % 20 != 0]
        texts.append(" ".join(toks2))
        ids.append(i + 1000)
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})


@pytest.mark.parametrize(
    "caps",
    [
        {},  # bounded-broadcast fast path
        {"broadcast_pair_limit": 0},  # pair-count fallback
        {"max_broadcast_text_bytes": 0},  # byte-budget fallback
    ],
)
def test_minhash_near_dups_recover_planted(ray_session, caps):
    """Forced caps exercise the grouped-join verify (the at-scale
    path); the default takes the bounded-broadcast fast path."""
    ray = ray_session
    from console_log_parser_ray.stages.dedup import minhash_near_dups, ngram_jaccard

    tbl = _docs_table()
    ds = ray.data.from_arrow(tbl)
    pairs = minhash_near_dups(ds, threshold=0.5, **caps).take_all()
    got = {(r["doc_a"], r["doc_b"]) for r in pairs}
    planted = {(i, i + 1000) for i in range(60)}
    # every planted pair has true jaccard >= 0.5 and must be recovered
    texts = dict(zip(tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist()))
    for a, b in planted:
        assert ngram_jaccard(texts[a], texts[b]) >= 0.5
    recall = len(got & planted) / len(planted)
    assert recall >= 0.95, f"recall {recall}"
    # no false positives below threshold
    for a, b in got:
        assert ngram_jaccard(texts[a], texts[b]) >= 0.5


def test_exact_dedup(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.dedup import exact_dedup

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": ["a", "b", "a", "c", "b"],
        }
    )
    out = exact_dedup(ray.data.from_arrow(tbl)).take_all()
    assert sorted(r["doc_id"] for r in out) == [1, 2, 4]


def test_simhash_similar_texts_close(ray_session):
    from console_log_parser_ray.stages.dedup import _simhash64

    a = " ".join(f"tok{i}" for i in range(100))
    b = " ".join(f"tok{i}" for i in range(99)) + " other"
    c = " ".join(f"zzz{i}" for i in range(100))
    d_ab = bin(_simhash64(a) ^ _simhash64(b)).count("1")
    d_ac = bin(_simhash64(a) ^ _simhash64(c)).count("1")
    assert d_ab < 10 < d_ac


@pytest.mark.parametrize("op", ["exact_dedup", "exact_dedup_priority"])
def test_exact_dedup_hash_collision_safe(ray_session, monkeypatch, op):
    """Two distinct texts forced into one hash group must both survive."""
    ray = ray_session
    from console_log_parser_ray.stages import dedup

    monkeypatch.setattr(
        dedup,
        "_text_hash_batch",
        lambda b, c: b.append_column(
            "text_hash", pa.array([7] * b.num_rows, pa.int64())
        ),
    )
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": ["x", "y", "x", "y"],
            "source": ["a", "a", "a", "a"],
        }
    )
    ds = ray.data.from_arrow(tbl)
    if op == "exact_dedup":
        out = dedup.exact_dedup(ds).take_all()
    else:
        out = dedup.exact_dedup_priority(ds, priority=("a",)).take_all()
    assert sorted(r["doc_id"] for r in out) == [1, 2]


def test_simhash_vectorized_matches_scalar(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.dedup import _simhash64, simhash

    texts = ["", "one", "one two three", "a b c d e f", "one one one"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": texts,
        }
    )
    out = {
        r["doc_id"]: r["simhash"]
        for r in simhash(ray.data.from_arrow(tbl)).take_all()
    }
    for i, t in enumerate(texts):
        assert out[i] == _simhash64(t)


def test_fingerprint_vectorized_matches_scalar(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.textan import (
        _fingerprint_scalar,
        fingerprint,
    )

    texts = ["", "  spaced   out  ", "hello world", "日本語 π mixed", "x" * 300]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": texts,
        }
    )
    out = {
        r["doc_id"]: r["fingerprint"]
        for r in fingerprint(ray.data.from_arrow(tbl)).take_all()
    }
    for i, t in enumerate(texts):
        assert out[i] == _fingerprint_scalar(t)


def test_token_jaccard_handles_id_gaps(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.dedup import token_jaccard_adjacent

    # ids 1,2,5,6: pairs (1,2) and (5,6) exist; 2->3 and 4->5 are gaps
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 5, 6], pa.int64()),
            "text": ["a b", "a b c", "x y", "y z"],
        }
    )
    out = {
        r["doc_a"]: r["jaccard"]
        for r in token_jaccard_adjacent(ray.data.from_arrow(tbl)).take_all()
    }
    assert set(out) == {1, 5}
    assert out[1] == 2 / 3
    assert out[5] == 1 / 3


def test_embedding_near_dups_ivf_recall_vs_brute(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.dedup import embedding_near_dups

    rng = np.random.default_rng(11)
    centers = rng.normal(size=(6, 12)) * 4
    base = np.concatenate(
        [c + rng.normal(size=(40, 12)) * 0.5 for c in centers]
    )
    # planted near-dups: tiny perturbations of each base vector
    noise = rng.normal(size=base.shape)
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    dup = base + 0.02 * np.linalg.norm(base, axis=1, keepdims=True) * noise
    ids = list(range(len(base))) + [i + 10_000 for i in range(len(dup))]
    mat = np.concatenate([base, dup])
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in mat]),
        }
    )
    ds = ray.data.from_arrow(tbl)
    brute = {
        (r["doc_a"], r["doc_b"])
        for r in embedding_near_dups(
            ds, threshold=0.99, method="brute"
        ).take_all()
    }
    ivf = {
        (r["doc_a"], r["doc_b"])
        for r in embedding_near_dups(
            ds, threshold=0.99, n_clusters=6, n_probe=2
        ).take_all()
    }
    assert brute, "planted pairs must exist"
    assert ivf <= brute  # IVF pairs are verified by true cosine
    recall = len(ivf & brute) / len(brute)
    assert recall >= 0.98, recall


# ---------------------------------------------------------------------------
# knn
# ---------------------------------------------------------------------------


def test_knn_bruteforce_exact(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.similarity import knn_bruteforce

    rng = np.random.default_rng(1)
    mat = rng.normal(size=(200, 16)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(200), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in mat]),
        }
    )
    q_ids = [0, 1]
    res = knn_bruteforce(
        ray.data.from_arrow(tbl), (q_ids, mat[:2].tolist()), k=5
    ).take_all()
    # numpy reference
    qn = mat[:2] / np.linalg.norm(mat[:2], axis=1, keepdims=True)
    mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = qn @ mn.T
    for qi in q_ids:
        want = set(np.argsort(-sims[qi])[:5].tolist())
        got = {r["vec_id"] for r in res if r["query_id"] == qi}
        assert got == want


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


def test_sessionize_gaps(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.events import sessionize

    base = 1_700_000_000_000_000
    rows = {
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "user_id": pa.array([7, 7, 7, 7], pa.int64()),
        "ts": pa.array(
            [base, base + 10_000_000, base + 4_000_000_000, base + 4_010_000_000],
            pa.timestamp("us"),
        ),
    }
    out = sessionize(
        ray.data.from_arrow(pa.table(rows)), gap_us=1_000_000_000
    ).take_all()
    got = {(r["session_id"], r["n_events"]) for r in out}
    assert got == {(0, 2), (1, 2)}


def test_twebber_hops_matches_straightline(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.events import twebber_hops

    # straight-line re-implementation of the reference algorithm
    def straight(left_start, left_frames, right_start, right_frames):
        class Side:
            def __init__(self, start, frames, offset):
                self.frames = frames
                self.start = offset
                self.i = 0
                self.curr = offset + frames[0]
                self.last = 0.0

            def skip_to(self, stop):
                while self.curr < stop:
                    self.last = self.frames[self.i]
                    self.i += 1
                    self.curr = (
                        self.start + self.frames[self.i]
                        if self.i < len(self.frames)
                        else float("inf")
                    )
                return self.last

        diff = right_start - left_start
        if diff >= 0:
            active, paused = Side(0, left_frames, 0.0), Side(0, right_frames, diff)
        else:
            active, paused = Side(0, right_frames, 0.0), Side(0, left_frames, -diff)
        hops = []
        while True:
            f = active.skip_to(paused.curr)
            if active.curr == float("inf") and paused.curr == float("inf"):
                break
            hops.append((f, paused.frames[paused.i]))
            active, paused = paused, active
        return hops

    rng = np.random.default_rng(5)
    rows = {"pair_id": [], "side": [], "start_ts": [], "frame_ts": []}
    expected = {}
    for p in range(4):
        lf = sorted(rng.uniform(0, 100, 30).tolist())
        rf = sorted(rng.uniform(0, 110, 25).tolist())
        ls, rs = 1000.0, 1000.0 + rng.uniform(-20, 20)
        pid = f"pair{p}"
        expected[pid] = straight(ls, lf, rs, rf)
        for f in lf:
            rows["pair_id"].append(pid)
            rows["side"].append("left")
            rows["start_ts"].append(ls)
            rows["frame_ts"].append(f)
        for f in rf:
            rows["pair_id"].append(pid)
            rows["side"].append("right")
            rows["start_ts"].append(rs)
            rows["frame_ts"].append(f)
    ds = ray.data.from_arrow(pa.table(rows))
    out = twebber_hops(ds).take_all()
    got = {}
    for r in out:
        got.setdefault(r["pair_id"], []).append((r["from_ts"], r["to_ts"]))
    for pid in expected:
        assert got.get(pid, []) == expected[pid], pid


def test_asof_join(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.events import asof_join_events_orders

    ev = pa.table(
        {
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "user_id": pa.array([5, 5, 9], pa.int64()),
            "ts": pa.array([100, 250, 100], pa.timestamp("us")),
        }
    )
    od = pa.table(
        {
            "o_orderkey": pa.array([11, 12, 13], pa.int64()),
            "o_custkey": pa.array([5, 5, 5], pa.int64()),
            "o_orderdate": pa.array([50, 200, 300], pa.timestamp("us")),
            "o_totalprice": pa.array([1.0, 2.0, 3.0], pa.float64()),
        }
    )
    out = asof_join_events_orders(
        ray.data.from_arrow(ev), ray.data.from_arrow(od)
    ).take_all()
    got = {r["event_id"]: r["last_orderkey"] for r in out}
    assert got == {1: 11, 2: 12, 3: None}


def test_multimodal_decode(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.multimodal import (
        decode_features,
        gen_media_table,
    )

    tbl = gen_media_table(20)
    out = decode_features(ray.data.from_arrow(tbl)).take_all()
    assert len(out) == 20
    by_id = {r["media_id"]: r for r in out}
    assert by_id[0]["width"] == tbl.column("width")[0].as_py()
    assert 0 <= by_id[0]["pixel_mean"] <= 255


def test_knn_ivf_recall_vs_bruteforce(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.similarity import knn_bruteforce, knn_ivf

    rng = np.random.default_rng(4)
    # clustered vectors so IVF buckets are meaningful
    centers = rng.normal(size=(8, 16)).astype(np.float32) * 4
    mat = np.concatenate(
        [c + rng.normal(size=(50, 16)).astype(np.float32) for c in centers]
    )
    tbl = pa.table(
        {
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in mat]),
        }
    )
    queries = ([0, 100, 250], mat[[0, 100, 250]].tolist())
    bf = knn_bruteforce(ray.data.from_arrow(tbl), queries, k=5).take_all()
    ivf = knn_ivf(
        ray.data.from_arrow(tbl), queries, k=5, n_clusters=8, n_probe=3
    ).take_all()
    bf_sets = {}
    ivf_sets = {}
    for r in bf:
        bf_sets.setdefault(r["query_id"], set()).add(r["vec_id"])
    for r in ivf:
        ivf_sets.setdefault(r["query_id"], set()).add(r["vec_id"])
    recalls = [
        len(bf_sets[q] & ivf_sets.get(q, set())) / len(bf_sets[q])
        for q in bf_sets
    ]
    assert sum(recalls) / len(recalls) >= 0.8, recalls


def test_knn_ivf_indexed_matches_inmemory(ray_session, tmp_path):
    """The bucket-partitioned index (scan-pruned storage reads) must
    return exactly the in-memory IVF results for identical params."""
    ray = ray_session
    from console_log_parser_ray.stages.similarity import (
        ivf_build_index,
        knn_ivf,
        knn_ivf_indexed,
    )

    rng = np.random.default_rng(9)
    centers = rng.normal(size=(8, 16)).astype(np.float32) * 4
    mat = np.concatenate(
        [c + rng.normal(size=(50, 16)).astype(np.float32) for c in centers]
    )
    tbl = pa.table(
        {
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in mat]),
        }
    )
    queries = ([0, 100, 250], mat[[0, 100, 250]].tolist())
    ds = ray.data.from_arrow(tbl)
    mem = {
        (r["query_id"], r["vec_id"])
        for r in knn_ivf(ds, queries, k=5, n_clusters=8, n_probe=3).take_all()
    }
    idx_path = str(tmp_path / "ivf_index")
    ivf_build_index(ds, idx_path, n_clusters=8)
    # only probed partitions are read
    import glob
    import os

    assert len(glob.glob(os.path.join(idx_path, "ivf_bucket=*"))) == 8
    indexed = {
        (r["query_id"], r["vec_id"])
        for r in knn_ivf_indexed(idx_path, queries, k=5, n_probe=3).take_all()
    }
    assert indexed == mem


def test_lang_id_on_stopword_text(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.textan import lang_id

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": [
                "the cat sat on the mat and it is a fine day for the park",
                "el gato y la casa de los vecinos en un lugar con luz",
                "der hund und die katze in den garten mit dem ball ist da",
            ],
        }
    )
    out = {r["doc_id"]: r["lang_pred"] for r in lang_id(ray.data.from_arrow(tbl)).take_all()}
    assert out == {1: "en", 2: "es", 3: "de"}


def test_tumbling_window_agg(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.events import tumbling_window_agg

    tbl = pa.table(
        {
            "event_type": ["a", "a", "a", "b"],
            "ts": pa.array(
                [0, 3_599_000_000, 3_600_000_000, 100], pa.timestamp("us")
            ),
            "value": [1.0, 5.0, 2.0, 9.0],
        }
    )
    out = {
        (r["event_type"], r["window"]): (r["n"], r["value_max"])
        for r in tumbling_window_agg(ray.data.from_arrow(tbl)).take_all()
    }
    assert out == {("a", 0): (2, 5.0), ("a", 1): (1, 2.0), ("b", 0): (1, 9.0)}


def test_deterministic_sample_stable_and_correct(ray_session):
    ray = ray_session
    from console_log_parser_ray.stages.events import deterministic_sample
    from console_log_parser_ray.state.manifests import H32_MOD, H32_MULT

    tbl = pa.table({"doc_id": pa.array(range(1000), pa.int64())})
    got = sorted(
        r["doc_id"]
        for r in deterministic_sample(
            ray.data.from_arrow(tbl), rate_pct=10
        ).take_all()
    )
    want = [
        i
        for i in range(1000)
        if (i * H32_MULT) % H32_MOD < (H32_MOD * 10) // 100
    ]
    assert got == want
    # stable under repartitioning
    got2 = sorted(
        r["doc_id"]
        for r in deterministic_sample(
            ray.data.from_arrow(tbl).repartition(7), rate_pct=10
        ).take_all()
    )
    assert got2 == want
    assert 50 <= len(want) <= 150  # ~10%


def test_conversation_exact_dedup(ray_session):
    """Duplicate conversations (identical turn texts in order) collapse
    to the lexicographically first conv_id."""
    ray = ray_session
    from console_log_parser_ray.stages.dedup import conversation_exact_dedup

    rows = {"conv_id": [], "turn_idx": [], "text": []}
    for cid, texts in (
        ("a", ["x", "y"]),
        ("b", ["x", "y"]),       # duplicate of a
        ("c", ["x", "y", "z"]),  # distinct (extra turn)
        ("d", ["xy"]),           # distinct (same concat chars, diff turns)
    ):
        for i, t in enumerate(texts):
            rows["conv_id"].append(cid)
            rows["turn_idx"].append(i)
            rows["text"].append(t)
    tbl = pa.table(
        {
            "conv_id": pa.array(rows["conv_id"], pa.string()),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "text": pa.array(rows["text"], pa.string()),
        }
    )
    out = conversation_exact_dedup(
        ray.data.from_arrow(tbl), n_buckets=4
    ).take_all()
    kept = sorted(r["conv_id"] for r in out)
    # NOTE: "d" ("xy" in one turn) joins to "xy"; "a"/"b" join to "x\ny"
    assert kept == ["a", "c", "d"]


def test_distinct_rows_bucketed(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.dedup import distinct_rows

    rows = []
    for conv in ("a", "b", "c"):
        for cmd in (1, 2):
            for _rep in range(3):  # identical payload per key
                rows.append(
                    {"conv_id": conv, "cmd_count": cmd,
                     "payload": f"{conv}-{cmd}"}
                )
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    out = distinct_rows(ds, ["conv_id", "cmd_count"], n_buckets=8)
    got = sorted(
        out.take_all(), key=lambda r: (r["conv_id"], r["cmd_count"])
    )
    assert [(r["conv_id"], r["cmd_count"], r["payload"]) for r in got] == [
        ("a", 1, "a-1"), ("a", 2, "a-2"), ("b", 1, "b-1"),
        ("b", 2, "b-2"), ("c", 1, "c-1"), ("c", 2, "c-2"),
    ]


def test_redact_and_normalize(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import normalize_text, redact

    rows = [
        {"doc_id": 0, "text": "alice@devbox:~/work$ ping 10.0.0.1 now"},
        {"doc_id": 1, "text": "  Mixed\tCase   RUN  \n"},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    red = {r["doc_id"]: r["redacted"] for r in redact(ds).take_all()}
    assert red[0] == "<USER@HOST>:~/work$ ping <IP> now"
    assert red[1] == rows[1]["text"]
    norm = {r["doc_id"]: r["norm"] for r in normalize_text(ds).take_all()}
    assert norm[1] == "mixed case run"
    assert norm[0] == rows[0]["text"].lower()


def test_ngram_topk(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import ngram_topk

    rows = [
        {"text": "a b c a b c"},   # "a b c" x2, "b c a", "c a b"
        {"text": "a b c d"},       # "a b c", "b c d"
        {"text": "x y"},           # too short for trigrams
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    got = ngram_topk(ds, n=3, k=3).take_all()
    assert got[0] == {"ngram": "a b c", "n": 3}
    # count-1 ties broken by ngram ascending
    assert [r["ngram"] for r in got[1:]] == ["b c a", "b c d"]


def test_connected_components(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.dedup import connected_components

    # chain 1-2-3-4 (3 propagation hops), star 10<-{11,12}, singleton 99
    edges = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": [2, 3, 4, 11, 12],
                "doc_b": [1, 2, 3, 10, 10],
            }
        )
    ).repartition(3)
    nodes = ray.data.from_arrow(
        pa.table({"doc_id": [1, 2, 3, 4, 10, 11, 12, 99]})
    )
    got = {
        r["doc_id"]: (r["cluster_id"], r["canonical"])
        for r in connected_components(edges, nodes).take_all()
    }
    assert got == {
        1: (1, True),
        2: (1, False),
        3: (1, False),
        4: (1, False),
        10: (10, True),
        11: (10, False),
        12: (10, False),
        99: (99, True),
    }


def test_connected_components_raises_without_convergence(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.dedup import connected_components

    # a 5-chain needs 4 propagation rounds; cap at 1 must raise rather
    # than return a partially-propagated clustering
    edges = ray.data.from_arrow(
        pa.table({"doc_a": [2, 3, 4, 5], "doc_b": [1, 2, 3, 4]})
    )
    nodes = ray.data.from_arrow(pa.table({"doc_id": [1, 2, 3, 4, 5]}))
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components(edges, nodes, max_iters=1)


def test_decontaminate(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import decontaminate

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": [0, 1, 2, 3],
                "text": [
                    "a b c d e f g",        # in bench: 3 distinct 5-grams
                    "p q r s t u",          # clean
                    "zz a b c d e yy",      # shares "a b c d e": 1 hit
                    "a b c d e a b c d e",  # windows 1 and 6 both hit,
                                            # distinct collapses to 1
                ],
            }
        )
    ).repartition(2)
    bench = ray.data.from_arrow(
        pa.table({"doc_id": [100], "text": ["a b c d e f g"]})
    )
    got = {
        r["doc_id"]: (r["n_hits"], r["contaminated"])
        for r in decontaminate(docs, bench, n=5).take_all()
    }
    assert got == {
        0: (3, True),
        1: (0, False),
        2: (1, True),
        3: (1, True),
    }


def test_decontaminate_bench_size_guard(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import decontaminate

    docs = ray.data.from_arrow(
        pa.table({"doc_id": [0], "text": ["a b c d e f"]})
    )
    with pytest.raises(ValueError, match="max_bench_ngrams"):
        decontaminate(docs, docs, n=5, max_bench_ngrams=1)


def test_dup_cluster_labels_both_paths(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.dedup import dup_cluster_labels

    edges = ray.data.from_arrow(
        pa.table({"doc_a": [2, 3, 12], "doc_b": [1, 2, 10]})
    )
    nodes = ray.data.from_arrow(
        pa.table({"doc_id": [1, 2, 3, 10, 12, 99]})
    ).repartition(2)
    want = {
        1: (1, True),
        2: (1, False),
        3: (1, False),
        10: (10, True),
        12: (10, False),
        99: (99, True),
    }
    for limit in (0, 1_000_000):  # 0 forces the distributed fallback
        got = {
            r["doc_id"]: (r["cluster_id"], r["canonical"])
            for r in dup_cluster_labels(
                edges, nodes, pair_limit=limit
            ).take_all()
        }
        assert got == want, limit


def test_sample_per_group_bounded_and_deterministic(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import sample_per_group
    from console_log_parser_ray.state.manifests import H32_MOD, H32_MULT

    rows = [
        {"doc_id": i, "source": "s{}".format(i % 3)} for i in range(60)
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    got = sample_per_group(ds, "source", k=5, id_col="doc_id").take_all()
    assert len(got) == 15
    by_src = {}
    for r in got:
        by_src.setdefault(r["source"], []).append(r["doc_id"])
    # expected: per source, the 5 ids with smallest multiplicative hash
    def h(i):
        return ((i & 0x7FFFFFFF) * H32_MULT) % H32_MOD

    for s in ("s0", "s1", "s2"):
        ids = [i for i in range(60) if "s{}".format(i % 3) == s]
        want = sorted(sorted(ids, key=lambda i: (h(i), i))[:5])
        assert sorted(by_src[s]) == want, s


def test_kmeans_clusters_planted(ray_session):
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.similarity import kmeans_clusters

    # three well-separated planted clusters; seeds are the 3 smallest
    # ids, one per cluster, so Lloyd's must recover the planting
    rng = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    rows = []
    for i in range(90):
        c = i % 3
        v = centers[c] + rng.normal(scale=0.1, size=2)
        rows.append({"vec_id": i, "embedding": [float(v[0]), float(v[1])]})
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(5)
    got = {
        r["vec_id"]: r["cluster"]
        for r in kmeans_clusters(ds, k=3, n_assign=2).take_all()
    }
    assert len(got) == 90
    # seed ids 0,1,2 define cluster labels 0,1,2 = planted c
    for i in range(90):
        assert got[i] == i % 3, i


def test_rep_signals_fractions(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import rep_signals

    rows = [
        {"doc_id": 0, "text": "a\nb\na\n\na"},   # 4 non-empty: a,b,a,a
        {"doc_id": 1, "text": ""},                # no lines
        {"doc_id": 2, "text": "\n\n"},            # only empties
        {"doc_id": 3, "text": "x\ny\nz"},         # all distinct
        {"doc_id": 4, "text": "s\ns\ns\ns"},      # all duplicate
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    got = {r["doc_id"]: r for r in rep_signals(ds).take_all()}
    assert got[0]["n_lines"] == 4
    assert got[0]["dup_line_frac"] == (4 - 2) / 4
    assert got[0]["top_line_frac"] == 3 / 4
    for d in (1, 2):
        assert got[d]["n_lines"] == 0
        assert got[d]["dup_line_frac"] == 0.0
        assert got[d]["top_line_frac"] == 0.0
    assert got[3]["dup_line_frac"] == 0.0
    assert got[3]["top_line_frac"] == 1 / 3
    assert got[4]["dup_line_frac"] == 3 / 4
    assert got[4]["top_line_frac"] == 1.0


def test_export_shards_layout_and_idempotent_rerun(ray_session, tmp_path):
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray.data

    from console_log_parser_ray.stages.export import (
        export_shards,
        shard_assignments,
    )

    rows = [{"doc_id": i, "text": "doc {}".format(i)} for i in range(200)]
    tbl = pa.Table.from_pylist(rows)
    ds = ray.data.from_arrow(tbl).repartition(6)
    out = str(tmp_path / "exp")
    counts = export_shards(ds, out, n_shards=8)
    assert sum(counts.values()) == 200

    # placement matches the projection operator
    want = {
        r["doc_id"]: r["shard"]
        for r in shard_assignments(
            ray.data.from_arrow(tbl), n_shards=8
        ).take_all()
    }
    got = {}
    for s in counts:
        d = os.path.join(out, "shard={}".format(s))
        for f in sorted(os.listdir(d)):
            assert f.startswith("part-") and f.endswith(".parquet")
            for did in pq.read_table(d + "/" + f).column("doc_id").to_pylist():
                assert did not in got
                got[did] = s
    assert got == want

    man = json.load(open(os.path.join(out, "_manifest.json")))
    assert man["total_rows"] == 200
    assert man["rows_per_shard"] == {str(k): v for k, v in counts.items()}

    # re-run converges on the identical file set, no duplicate rows
    files_before = {
        (s, f): os.path.getsize(os.path.join(out, "shard={}".format(s), f))
        for s in counts
        for f in os.listdir(os.path.join(out, "shard={}".format(s)))
    }
    ds2 = ray.data.from_arrow(tbl).repartition(6)
    counts2 = export_shards(ds2, out, n_shards=8)
    assert counts2 == counts
    files_after = {
        (s, f): os.path.getsize(os.path.join(out, "shard={}".format(s), f))
        for s in counts
        for f in os.listdir(os.path.join(out, "shard={}".format(s)))
    }
    assert files_after == files_before
    assert not [f for _, f in files_after if ".tmp." in f]


def test_simhash_near_dups_planted(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.dedup import (
        _simhash64,
        simhash_near_dups,
    )

    base = " ".join("tok{}".format(i) for i in range(60))
    near = base.replace("tok3", "tok3x")     # one token swapped
    far = " ".join("other{}".format(i) for i in range(60))
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base},         # identical: hamming 0
        {"doc_id": 3, "text": near},
        {"doc_id": 4, "text": far},
    ]
    # compute the true hamming distances from the scalar reference
    h = {r["doc_id"]: _simhash64(r["text"]) for r in rows}

    def ham(a, b):
        return bin(h[a] ^ h[b]).count("1")

    want = {
        (a, b): ham(a, b)
        for a in (1, 2, 3, 4)
        for b in (1, 2, 3, 4)
        if a < b and ham(a, b) <= 3
    }
    assert (1, 2) in want and want[(1, 2)] == 0  # sanity: identical

    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(2)
    got = {
        (r["doc_a"], r["doc_b"]): r["hamming"]
        for r in simhash_near_dups(ds, max_hamming=3).take_all()
    }
    assert got == want


def test_heavy_hitters_exact_with_skew(ray_session):
    import collections

    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.sketch import heavy_hitters

    # skewed stream: value v appears ~1000/v times; small k forces the
    # Misra-Gries reduction to actually fire in both sketch and merge
    vals = []
    for v in range(1, 60):
        vals.extend([v] * (1000 // v))
    # deterministic interleave so blocks see mixed values
    vals = [vals[i] for i in range(0, len(vals), 7)] + [
        vals[i] for i in range(len(vals)) if i % 7
    ]
    ds = ray.data.from_arrow(
        pa.Table.from_pylist([{"user_id": v} for v in vals])
    ).repartition(8)
    k = 10
    n = len(vals)
    truth = collections.Counter(vals)
    want = {v: c for v, c in truth.items() if c * k > n}
    assert 1 <= len(want) < len(truth)  # non-trivial selection
    got = {
        r["user_id"]: r["n"]
        for r in heavy_hitters(ds, "user_id", k=k).take_all()
    }
    assert got == want


def test_new_operators_invariant_under_repartitioning(ray_session):
    """The integer-exact late-round operators must give identical
    results regardless of block boundaries (the property that makes
    them safe on any cluster layout)."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.dedup import simhash_near_dups
    from console_log_parser_ray.stages.events import sample_per_group
    from console_log_parser_ray.stages.sketch import heavy_hitters

    rows = []
    for i in range(300):
        rows.append(
            {
                "doc_id": i,
                "source": "s{}".format(i % 4),
                "text": "alpha beta gamma {}".format(i % 7),
                "user_id": i % 11,
            }
        )
    tbl = pa.Table.from_pylist(rows)

    def runs(np_):
        ds = ray.data.from_arrow(tbl).repartition(np_)
        hh = sorted(
            (r["user_id"], r["n"])
            for r in heavy_hitters(ds, "user_id", k=15).take_all()
        )
        sp = sorted(
            (r["source"], r["doc_id"])
            for r in sample_per_group(
                ds, "source", k=3, id_col="doc_id"
            ).take_all()
        )
        sd = sorted(
            (r["doc_a"], r["doc_b"], r["hamming"])
            for r in simhash_near_dups(ds, max_hamming=3).take_all()
        )
        return hh, sp, sd

    a = runs(1)
    b = runs(7)
    c = runs(32)
    assert a == b == c
    assert a[0] and a[2]  # non-trivial: hitters and near-dup pairs exist


def test_group_quantiles_percentile_disc_semantics(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import group_quantiles

    rows = [{"g": "a", "value": float(v)} for v in range(1, 11)]  # 1..10
    rows += [{"g": "b", "value": 7.5}]                            # n=1
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    got = {
        r["g"]: (r["p50"], r["p95"])
        for r in group_quantiles(ds, "g", "value", qs=(0.5, 0.95)).take_all()
    }
    # percentile_disc over 1..10: p50 = ceil(0.5*10)=5th value = 5,
    # p95 = ceil(0.95*10)=10th value = 10
    assert got["a"] == (5.0, 10.0)
    assert got["b"] == (7.5, 7.5)


def test_sampled_group_quantiles(ray_session):
    """Hash-sampled quantiles: deterministic (block-layout invariant),
    equal to the exact disc-quantile of the locally-replicated sample,
    and within a loose band of the true continuous quantile."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        _fmix32,
        sampled_group_quantiles,
    )

    rng = np.random.default_rng(11)
    n = 20000
    ids = np.arange(n, dtype=np.int64)
    vals = rng.normal(50.0, 10.0, n)
    tbl = pa.table(
        {
            "event_id": pa.array(ids),
            "g": pa.array(np.where(ids % 2 == 0, "a", "b")),
            "value": pa.array(vals),
        }
    )
    keep = _fmix32(ids) % 4 == 0
    want = {}
    for g, mask in (("a", ids % 2 == 0), ("b", ids % 2 == 1)):
        s = np.sort(vals[keep & mask])
        want[g] = (
            float(s[int(np.ceil(0.5 * len(s))) - 1]),
            float(s[int(np.ceil(0.95 * len(s))) - 1]),
        )
    base = None
    for np_ in (1, 6):
        got = {
            r["g"]: (r["p50"], r["p95"])
            for r in sampled_group_quantiles(
                ray.data.from_arrow(tbl).repartition(np_),
                "g",
                "value",
                id_col="event_id",
                sample_mod=4,
            ).take_all()
        }
        assert got == want
        base = base or got
    # true N(50,10): p50=50, p95~66.4; ~2500-row samples land close
    for g in "ab":
        assert abs(base[g][0] - 50.0) < 1.5
        assert abs(base[g][1] - 66.45) < 2.5


def test_resize_box_roundtrip_and_exactness(ray_session):
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.multimodal import (
        _decode_image_impl,
        gen_media_table,
        resize_images,
    )

    tbl = gen_media_table(20, seed=3)
    ds = ray.data.from_arrow(tbl)
    out = {r["media_id"]: r for r in resize_images(ds, factor=4).take_all()}
    src = {r["media_id"]: r for r in tbl.to_pylist()}
    assert len(out) == 20
    for mid, r in out.items():
        w, h = src[mid]["width"], src[mid]["height"]
        assert r["rw"] == (w + 3) // 4 and r["rh"] == (h + 3) // 4
        # the emitted payload re-decodes to the declared dims and sum
        rw2, rh2, pix = _decode_image_impl(bytes(r["payload"]))
        assert (rw2, rh2) == (r["rw"], r["rh"])
        assert int(pix.sum(dtype=np.int64)) == r["resized_sum"]
        # exactness vs a direct numpy box-downsample
        _, _, full = _decode_image_impl(bytes(src[mid]["payload"]))
        img = full.reshape(h, w).astype(np.int64)
        want = np.zeros((r["rh"], r["rw"]), dtype=np.int64)
        for br in range(r["rh"]):
            for bc in range(r["rw"]):
                blk = img[br * 4 : br * 4 + 4, bc * 4 : bc * 4 + 4]
                want[br, bc] = blk.sum() // blk.size
        assert (pix.reshape(r["rh"], r["rw"]) == want).all()


def test_sample_frames_roundtrip(ray_session):
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.multimodal import (
        _decode_video_impl,
        gen_video_table,
        sample_frames,
    )

    tbl = gen_video_table(12, seed=5)
    out = {
        r["media_id"]: r
        for r in sample_frames(
            ray.data.from_arrow(tbl), every=4
        ).take_all()
    }
    src = {r["media_id"]: r for r in tbl.to_pylist()}
    for mid, r in out.items():
        nf, w, h, frames = _decode_video_impl(bytes(src[mid]["payload"]))
        assert r["n_frames"] == nf == src[mid]["n_frames"]
        kept = frames[::4]
        assert r["n_sampled"] == kept.shape[0] == (nf + 3) // 4
        assert r["sampled_sum"] == int(kept.sum(dtype=np.int64))
        # the emitted payload re-decodes to exactly the kept frames
        nf2, w2, h2, frames2 = _decode_video_impl(bytes(r["payload"]))
        assert (nf2, w2, h2) == (kept.shape[0], w, h)
        assert (frames2 == kept).all()


def test_simhash_banding_equals_bruteforce_random(ray_session):
    """Property check of the pigeonhole claim: banded pair discovery
    must equal brute-force all-pairs hamming for every max_hamming
    that divides the 64-bit hash into equal bands."""
    import itertools
    import random

    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.dedup import (
        _simhash64,
        simhash_near_dups,
    )

    rng = random.Random(11)
    vocab = ["w{}".format(i) for i in range(40)]
    rows = []
    for i in range(40):
        n = rng.randint(3, 12)
        rows.append(
            {"doc_id": i, "text": " ".join(rng.sample(vocab, n))}
        )
    h = {r["doc_id"]: _simhash64(r["text"]) for r in rows}
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    for mh in (1, 3, 7):
        want = {
            (a, b): bin(h[a] ^ h[b]).count("1")
            for a, b in itertools.combinations(range(40), 2)
            if bin(h[a] ^ h[b]).count("1") <= mh
        }
        got = {
            (r["doc_a"], r["doc_b"]): r["hamming"]
            for r in simhash_near_dups(ds, max_hamming=mh).take_all()
        }
        assert got == want, mh


def test_hash_join_inner_and_left(ray_session):
    """Co-partitioned hash join vs a brute-force local join, invariant
    under block boundaries and bucket counts."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.relational import hash_join

    left = pa.Table.from_pylist(
        [{"k": i % 50, "lv": i} for i in range(400)]
    )
    right = pa.Table.from_pylist(
        [{"rk": k, "rv": k * 10} for k in range(30, 80)]  # keys 30..79
    )
    expect_inner = sorted(
        (r["k"], r["lv"], r["k"] * 10)
        for r in left.to_pylist()
        if 30 <= r["k"] < 80
    )
    expect_left = sorted(
        (r["k"], r["lv"], r["k"] * 10 if 30 <= r["k"] < 80 else None)
        for r in left.to_pylist()
    )

    for np_, nb in [(1, 4), (8, 16), (32, 7)]:
        lds = ray.data.from_arrow(left).repartition(np_)
        rds = ray.data.from_arrow(right).repartition(max(1, np_ // 2))
        got = sorted(
            (r["k"], r["lv"], r["rv"])
            for r in hash_join(
                lds, rds, on="k", right_on="rk", n_buckets=nb
            ).take_all()
        )
        assert got == expect_inner
        gotl = sorted(
            (r["k"], r["lv"], r["rv"])
            for r in hash_join(
                lds, rds, on="k", right_on="rk", n_buckets=nb, how="left"
            ).take_all()
        )
        assert gotl == expect_left


def test_hash_join_rejects_column_collision(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.relational import hash_join

    a = ray.data.from_arrow(pa.Table.from_pylist([{"k": 1, "v": 2}]))
    b = ray.data.from_arrow(pa.Table.from_pylist([{"k": 1, "v": 3}]))
    with pytest.raises(ValueError):
        hash_join(a, b, on="k")


def test_dense_rank_matches_window_semantics(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.relational import dense_rank

    rows = [
        {"g": "x", "v": 10, "id": 0},
        {"g": "x", "v": 10, "id": 1},   # tie -> same dense rank
        {"g": "x", "v": 7, "id": 2},
        {"g": "x", "v": 3, "id": 3},
        {"g": "y", "v": 100, "id": 4},
        {"g": "y", "v": 1, "id": 5},
    ]
    expect = {0: 1, 1: 1, 2: 2, 3: 3, 4: 1, 5: 2}
    for np_ in (1, 4):
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(np_)
        got = {
            r["id"]: r["rnk"]
            for r in dense_rank(ds, "g", "v", descending=True).take_all()
        }
        assert got == expect


def test_idf_rarity_exact_counts(ray_session):
    """Hand-computed DF oracle; block-boundary invariant; empty docs
    drop out (inner-join semantics of the SQL mirror)."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import idf_rarity

    rows = [
        {"doc_id": 1, "text": "a b a c"},      # a x2, b, c
        {"doc_id": 2, "text": "a b b"},        # a, b x2
        {"doc_id": 3, "text": "zzz"},          # hapax token
        {"doc_id": 4, "text": "   "},          # no tokens -> dropped
    ]
    # df: a->2, b->2, c->1, zzz->1
    expect = {
        1: {"n_tokens": 4, "sum_df": 2 * 2 + 2 + 1, "n_hapax": 1},
        2: {"n_tokens": 3, "sum_df": 2 + 2 * 2, "n_hapax": 0},
        3: {"n_tokens": 1, "sum_df": 1, "n_hapax": 1},
    }
    for np_ in (1, 3):
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(np_)
        out = {r["doc_id"]: r for r in idf_rarity(ds).take_all()}
        assert set(out) == set(expect)
        for d, e in expect.items():
            for k, v in e.items():
                assert out[d][k] == v, (d, k, out[d])


def test_range_count_join_brute_force(ray_session):
    """Equi+range interval join vs a brute-force oracle, inclusive
    start / exclusive end, zero counts kept, block-boundary invariant."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.relational import range_count_join

    rng_windows = [
        {"wid": i, "key": i % 5, "start": (i * 13) % 50, "end": (i * 13) % 50 + 7}
        for i in range(40)
    ]
    rng_windows.append({"wid": 99, "key": 99, "start": 0, "end": 60})
    rng_events = [
        {"key": j % 7, "ts": (j * 11) % 60} for j in range(300)
    ]
    expect = {
        w["wid"]: sum(
            1
            for e in rng_events
            if e["key"] == w["key"] and w["start"] <= e["ts"] < w["end"]
        )
        for w in rng_windows
    }
    for np_, nb in [(1, 4), (6, 16)]:
        wds = ray.data.from_arrow(
            pa.Table.from_pylist(rng_windows)
        ).repartition(np_)
        eds = ray.data.from_arrow(
            pa.Table.from_pylist(rng_events)
        ).repartition(np_)
        got = {
            r["wid"]: r["n_events"]
            for r in range_count_join(
                wds,
                eds,
                on="key",
                right_on="key",
                start_col="start",
                end_col="end",
                ts_col="ts",
                keep_cols=["wid"],
                n_buckets=nb,
            ).take_all()
        }
        assert got == expect
    assert any(v == 0 for v in expect.values())
    assert any(v > 0 for v in expect.values())


def test_hopping_window_agg_brute_force(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import hopping_window_agg

    rows = [
        {"event_type": "ab"[j % 2], "ts": j * 137, "value": float(j % 9)}
        for j in range(200)
    ]
    size, hop = 400, 100  # k = 4
    expect: dict = {}
    for r in rows:
        w0 = r["ts"] // hop
        for w in range(w0 - 3, w0 + 1):
            assert w * hop <= r["ts"] < w * hop + size
            key = (r["event_type"], w)
            n, m = expect.get(key, (0, -1.0))
            expect[key] = (n + 1, max(m, r["value"]))
    for np_ in (1, 5):
        tbl = pa.table(
            {
                "event_type": [r["event_type"] for r in rows],
                "ts": pa.array([r["ts"] for r in rows], pa.int64()),
                "value": [r["value"] for r in rows],
            }
        )
        ds = ray.data.from_arrow(tbl).repartition(np_)
        got = {
            (r["event_type"], r["window"]): (r["n"], r["value_max"])
            for r in hopping_window_agg(ds, size_us=size, hop_us=hop).take_all()
        }
        assert got == expect


def test_hash_join_semi_and_anti(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.relational import hash_join

    left = pa.Table.from_pylist([{"k": i % 10, "lv": i} for i in range(60)])
    right = pa.Table.from_pylist([{"rk": k} for k in (2, 3, 5, 7, 2)])
    lds = ray.data.from_arrow(left).repartition(4)
    rds = ray.data.from_arrow(right)
    semi = sorted(
        (r["k"], r["lv"])
        for r in hash_join(
            lds, rds, on="k", right_on="rk", n_buckets=8, how="semi"
        ).take_all()
    )
    anti = sorted(
        (r["k"], r["lv"])
        for r in hash_join(
            lds, rds, on="k", right_on="rk", n_buckets=8, how="anti"
        ).take_all()
    )
    rows = left.to_pylist()
    assert semi == sorted(
        (r["k"], r["lv"]) for r in rows if r["k"] in {2, 3, 5, 7}
    )  # semi never duplicates despite the duplicate right key
    assert anti == sorted(
        (r["k"], r["lv"]) for r in rows if r["k"] not in {2, 3, 5, 7}
    )
    assert len(semi) + len(anti) == len(rows)


def test_bloom_semi_join_exact_under_false_positives(ray_session):
    """Bloom-pushdown semi/anti equal the plain joins even with a
    deliberately tiny bitmap (dense false positives) -- the exact
    verify join makes FPs a cost, never an answer; inner pushdown
    keeps right columns and duplicate matches."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.relational import bloom_semi_join

    rng = np.random.default_rng(3)
    lk = rng.integers(0, 500, 400).astype("int64")
    left = pa.table(
        {"k": pa.array(lk), "lv": pa.array(np.arange(400), pa.int64())}
    )
    rk = rng.choice(500, size=60, replace=False).astype("int64")
    right = pa.table({"rk": pa.array(rk)})
    lds = ray.data.from_arrow(left).repartition(5)
    rds = ray.data.from_arrow(right).repartition(3)
    members = set(rk.tolist())
    rows = left.to_pylist()
    # 256-bit bloom over 60 keys: FP rate is enormous on purpose
    for m_bits in (256, 1 << 14):
        semi = sorted(
            (r["k"], r["lv"])
            for r in bloom_semi_join(
                lds, rds, on="k", right_on="rk", m_bits=m_bits,
                n_buckets=8,
            ).take_all()
        )
        assert semi == sorted(
            (r["k"], r["lv"]) for r in rows if r["k"] in members
        )
        anti = sorted(
            (r["k"], r["lv"])
            for r in bloom_semi_join(
                lds, rds, on="k", right_on="rk", m_bits=m_bits,
                n_buckets=8, how="anti",
            ).take_all()
        )
        assert anti == sorted(
            (r["k"], r["lv"]) for r in rows if r["k"] not in members
        )
        assert len(semi) + len(anti) == len(rows)
    inner = sorted(
        (r["k"], r["lv"])
        for r in bloom_semi_join(
            lds, rds, on="k", right_on="rk", m_bits=256, n_buckets=8,
            how="inner",
        ).take_all()
    )
    assert inner == sorted(
        (r["k"], r["lv"]) for r in rows if r["k"] in members
    )  # rk is unique, so inner matches semi row-for-row here


def test_hash_join_null_keys_sql_semantics(ray_session):
    """NULL keys never match (SQL semantics): dropped from inner,
    kept with null right columns in left outer."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.relational import hash_join

    left = pa.table(
        {
            "k": pa.array([1, None, 2, None], pa.int64()),
            "lv": pa.array([10, 11, 12, 13], pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([1, 2, None], pa.int64()),
            "rv": pa.array([100, 200, 999], pa.int64()),
        }
    )
    lds = ray.data.from_arrow(left)
    rds = ray.data.from_arrow(right)
    inner = sorted(
        (r["k"], r["lv"], r["rv"])
        for r in hash_join(lds, rds, on="k", right_on="rk").take_all()
    )
    assert inner == [(1, 10, 100), (2, 12, 200)]
    outer = sorted(
        (r["lv"], r["k"], r["rv"])
        for r in hash_join(
            lds, rds, on="k", right_on="rk", how="left"
        ).take_all()
    )
    assert outer == [
        (10, 1, 100),
        (11, None, None),
        (12, 2, 200),
        (13, None, None),
    ]


def test_idf_rarity_random_corpus_vs_python_oracle(ray_session):
    import collections

    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import idf_rarity

    rng = np.random.default_rng(5)
    vocab = [f"t{i}" for i in range(40)]
    rows = []
    for d in range(120):
        n = int(rng.integers(0, 30))
        toks = [vocab[x] for x in rng.integers(0, len(vocab), n)]
        rows.append({"doc_id": d, "text": " ".join(toks)})
    df_count: collections.Counter = collections.Counter()
    per_doc = {}
    for r in rows:
        toks = r["text"].split()
        if not toks:
            continue
        per_doc[r["doc_id"]] = collections.Counter(toks)
        for t in set(toks):
            df_count[t] += 1
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(5)
    out = {r["doc_id"]: r for r in idf_rarity(ds, n_buckets=7).take_all()}
    assert set(out) == set(per_doc)
    for d, cnt in per_doc.items():
        assert out[d]["n_tokens"] == sum(cnt.values())
        assert out[d]["sum_df"] == sum(
            n * df_count[t] for t, n in cnt.items()
        )
        assert out[d]["n_hapax"] == sum(
            1 for t in cnt if df_count[t] == 1
        )


def test_topk_per_group_by_value(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import topk_per_group

    rows = [
        {"doc_id": i, "g": "ab"[i % 2], "v": (i * 17) % 23}
        for i in range(80)
    ]
    expect = set()
    for g in "ab":
        grp = sorted(
            (r for r in rows if r["g"] == g),
            key=lambda r: (-r["v"], r["doc_id"]),
        )[:3]
        expect |= {(r["doc_id"], r["g"], r["v"]) for r in grp}
    for np_ in (1, 6):
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(np_)
        got = {
            (r["doc_id"], r["g"], r["v"])
            for r in topk_per_group(ds, "g", "v", k=3).take_all()
        }
        assert got == expect


def test_rarest_token_argmin_semantics(ray_session):
    """Per-doc argmin of (corpus df, token): hand oracle with ties,
    block-boundary invariant; zero-token docs dropped."""
    import collections

    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import rarest_token

    rows = [
        {"doc_id": 1, "text": "common zebra common"},  # zebra df=1
        {"doc_id": 2, "text": "common apple banana"},  # apple/banana df=1 tie -> apple
        {"doc_id": 3, "text": "common common"},        # only common (df=3)
        {"doc_id": 4, "text": ""},                     # dropped
    ]
    expect = {1: ("zebra", 1), 2: ("apple", 1), 3: ("common", 3)}
    for np_ in (1, 3):
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(np_)
        got = {
            r["doc_id"]: (r["rare_tok"], r["rare_df"])
            for r in rarest_token(ds, n_buckets=5, n_doc_buckets=3).take_all()
        }
        assert got == expect

    # randomized cross-check vs a pure-Python oracle
    rng = np.random.default_rng(9)
    vocab = [f"w{i:02d}" for i in range(25)]
    rows = [
        {
            "doc_id": d,
            "text": " ".join(
                vocab[x] for x in rng.integers(0, len(vocab), 12)
            ),
        }
        for d in range(60)
    ]
    df_count: collections.Counter = collections.Counter()
    for r in rows:
        for t in set(r["text"].split()):
            df_count[t] += 1
    expect = {
        r["doc_id"]: min(
            ((df_count[t], t) for t in set(r["text"].split())),
        )
        for r in rows
    }
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    got = {
        r["doc_id"]: (r["rare_df"], r["rare_tok"])
        for r in rarest_token(ds, n_buckets=7).take_all()
    }
    assert got == expect


def test_pivot_counts_wide_matrix(ray_session):
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import pivot_counts

    rows = []
    for i in range(90):
        rows.append({"user_id": i % 7, "event_type": "abc"[i % 3]})
    expect: dict = {}
    for r in rows:
        d = expect.setdefault(r["user_id"], {"a": 0, "b": 0, "c": 0})
        d[r["event_type"]] += 1
    for np_ in (1, 5):
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(np_)
        got = {
            r["user_id"]: (r["n_a"], r["n_b"], r["n_c"])
            for r in pivot_counts(
                ds, "user_id", "event_type", categories=("a", "b", "c"),
                n_buckets=4,
            ).take_all()
        }
        assert got == {
            u: (d["a"], d["b"], d["c"]) for u, d in expect.items()
        }

    # unknown category raises instead of silently dropping
    bad = ray.data.from_arrow(
        pa.Table.from_pylist([{"user_id": 1, "event_type": "zz"}])
    )
    with pytest.raises(Exception):
        pivot_counts(
            bad, "user_id", "event_type", categories=("a",)
        ).take_all()


def test_funnel_two_step_semantics(ray_session):
    """Hand oracle: pre-anchor purchases ignored, window boundary
    inclusive, non-converters null, users without the first event
    absent; block-boundary invariant."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import funnel_two_step

    rows = [
        # u1: signup@100, purchase@50 (before -> ignored), purchase@150
        {"user_id": 1, "ts": 100, "event_type": "signup"},
        {"user_id": 1, "ts": 50, "event_type": "purchase"},
        {"user_id": 1, "ts": 150, "event_type": "purchase"},
        # u2: signup@100, purchase@100+window (boundary -> converted)
        {"user_id": 2, "ts": 100, "event_type": "signup"},
        {"user_id": 2, "ts": 100 + 500, "event_type": "purchase"},
        # u3: signup@100, purchase@100+window+1 (late -> not converted)
        {"user_id": 3, "ts": 100, "event_type": "signup"},
        {"user_id": 3, "ts": 601, "event_type": "purchase"},
        # u4: signup only
        {"user_id": 4, "ts": 100, "event_type": "signup"},
        # u5: purchase only -> absent from output
        {"user_id": 5, "ts": 100, "event_type": "purchase"},
        # noise type everywhere
        {"user_id": 1, "ts": 1, "event_type": "view"},
    ]
    expect = {
        1: (100, 150, True),
        2: (100, 600, True),
        3: (100, 601, False),
        4: (100, None, False),
    }
    for np_ in (1, 4):
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(np_)
        got = {
            r["user_id"]: (r["first_us"], r["second_us"], r["converted"])
            for r in funnel_two_step(
                ds, "signup", "purchase", window_us=500, n_buckets=3
            ).take_all()
        }
        assert got == expect


def test_funnel_bucket_without_second_events(ray_session):
    """Regression: a bucket group holding first-event rows but ZERO
    second-event rows must not crash the empty-merge groupby (pandas
    names the empty merge's index after the group column)."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import funnel_two_step

    rows = [
        {"user_id": 7, "ts": 10, "event_type": "signup"},   # signup only
        {"user_id": 5, "ts": 10, "event_type": "purchase"}, # purchase only
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    got = {
        r["user_id"]: (r["first_us"], r["second_us"], r["converted"])
        for r in funnel_two_step(
            ds, "signup", "purchase", window_us=100, n_buckets=8
        ).take_all()
    }
    assert got == {7: (10, None, False)}


def test_pack_sequences_rule_and_partition_invariance(ray_session):
    """pack_id = per-shard first-token offset // budget, docs ordered
    by id; independent of input block layout."""
    ray = ray_session
    from console_log_parser_ray.stages.export import (
        _shard_col,
        pack_sequences,
    )

    texts = ["w " * (i % 7 + 1) for i in range(200)]  # 1..7 tokens
    tbl = pa.table(
        {"doc_id": pa.array(range(200), pa.int64()), "text": texts}
    )
    got = {
        r["doc_id"]: (r["shard"], r["n_tokens"], r["pack_id"])
        for r in pack_sequences(
            ray.data.from_arrow(tbl), budget=8, n_shards=4
        ).take_all()
    }
    # reference: plain python walk per shard
    shards = _shard_col(tbl.column("doc_id"), 4).to_pylist()
    per_shard = {}
    want = {}
    for i in range(200):
        s = shards[i]
        n = i % 7 + 1
        start = per_shard.get(s, 0)
        want[i] = (s, n, start // 8)
        per_shard[s] = start + n
    assert got == want
    got2 = {
        r["doc_id"]: (r["shard"], r["n_tokens"], r["pack_id"])
        for r in pack_sequences(
            ray.data.from_arrow(tbl).repartition(9), budget=8, n_shards=4
        ).take_all()
    }
    assert got2 == want


def test_mix_domains_thresholds_and_drop(ray_session):
    """The binding domain keeps every row; other domains are hash-
    thresholded to the target mixture; zero-weight domains drop."""
    ray = ray_session
    from console_log_parser_ray.stages.export import mix_domains
    from console_log_parser_ray.state.manifests import H32_MOD, H32_MULT

    # a: 40 rows w=4, b: 10 rows w=1, c: 50 rows w=0 (dropped)
    # ratios n/w -> a: 10.0, b: 10.0  (tie -> name order: 'a' binds)
    ids, srcs = [], []
    for i in range(100):
        ids.append(i)
        srcs.append("a" if i < 40 else ("b" if i < 50 else "c"))
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "source": srcs})
    )
    kept = {
        (r["doc_id"], r["source"])
        for r in mix_domains(ds, {"a": 4, "b": 1, "c": 0}).take_all()
    }
    thr = {
        "a": H32_MOD,  # binding: (2^32 * 40*4) // (4*40)
        "b": (H32_MOD * 40 * 1) // (4 * 10),  # == 2^32 -> all kept
    }
    want = {
        (i, s)
        for i, s in zip(ids, srcs)
        if s in thr and (i * H32_MULT) % H32_MOD < thr[s]
    }
    assert kept == want
    assert all(s != "c" for _, s in kept)
    # unequal ratios: b binds, a downsampled to ~half
    kept2 = [
        r["source"]
        for r in mix_domains(ds, {"a": 2, "b": 1}).take_all()
    ]
    n_a = sum(1 for s in kept2 if s == "a")
    n_b = sum(1 for s in kept2 if s == "b")
    assert n_b == 10  # binding domain kept whole
    assert 10 <= n_a <= 30  # ~20 of 40 under the hash threshold


def test_chunk_documents_windows_exact(ray_session):
    """Window i covers tokens [i*step, i*step+size); zero-token docs
    emit nothing; short docs emit one short chunk."""
    ray = ray_session
    from console_log_parser_ray.stages.textan import chunk_documents

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": ["t0 t1 t2 t3 t4 t5 t6", "", "a b"],
        }
    )
    got = sorted(
        (r["doc_id"], r["chunk_idx"], r["n_chunk_tokens"], r["chunk_text"])
        for r in chunk_documents(
            ray.data.from_arrow(tbl), size=4, overlap=1
        ).take_all()
    )
    # doc 1: 7 tokens, step 3 -> starts 0,3,6
    assert got == [
        (1, 0, 4, "t0 t1 t2 t3"),
        (1, 1, 4, "t3 t4 t5 t6"),
        (1, 2, 1, "t6"),
        (3, 0, 2, "a b"),
    ]
    import pytest

    with pytest.raises(ValueError):
        chunk_documents(ray.data.from_arrow(tbl), size=4, overlap=4)


def test_filter_top_quantile_disc_threshold(ray_session):
    """Threshold is the percentile_disc element (smallest value whose
    cumulative rank reaches ceil(q*N)); ties at the threshold kept."""
    ray = ray_session
    from console_log_parser_ray.stages.events import filter_top_quantile

    vals = [1] * 50 + [2] * 30 + [3] * 15 + [4] * 5
    tbl = pa.table(
        {
            "doc_id": pa.array(range(100), pa.int64()),
            "n_chars": pa.array(vals, pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(5)
    got = sorted(
        r["n_chars"]
        for r in filter_top_quantile(ds, "n_chars", q=0.9).take_all()
    )
    # ceil(0.9*100)=90 -> cum 50,80,95 -> threshold value 3
    assert got == [3] * 15 + [4] * 5
    # q high enough that only the max survives
    got99 = sorted(
        r["n_chars"]
        for r in filter_top_quantile(ds, "n_chars", q=0.99).take_all()
    )
    assert got99 == [4] * 5


def test_curation_operators_invariant_under_repartitioning(ray_session):
    """pack_sequences, mix_domains, chunk_documents and
    filter_top_quantile are integer-exact: identical results at 1, 7
    and 32 partitions."""
    ray = ray_session
    from console_log_parser_ray.stages.events import filter_top_quantile
    from console_log_parser_ray.stages.export import (
        mix_domains,
        pack_sequences,
    )
    from console_log_parser_ray.stages.textan import chunk_documents

    rows = []
    for i in range(300):
        rows.append(
            {
                "doc_id": i,
                "source": "s{}".format(i % 4),
                "text": ("tok{} ".format(i % 9) * (i % 13 + 1)).strip(),
                "n_chars": (i * 37) % 200,
            }
        )
    tbl = pa.Table.from_pylist(rows)

    def runs(np_):
        ds = ray.data.from_arrow(tbl).repartition(np_)
        pk = sorted(
            (r["doc_id"], r["shard"], r["pack_id"])
            for r in pack_sequences(ds, budget=16, n_shards=4).take_all()
        )
        mx = sorted(
            r["doc_id"]
            for r in mix_domains(
                ds, {"s0": 3, "s1": 1, "s2": 2, "s3": 1}
            ).take_all()
        )
        ck = sorted(
            (r["doc_id"], r["chunk_idx"], r["chunk_text"])
            for r in chunk_documents(ds, size=5, overlap=2).take_all()
        )
        tq = sorted(
            r["doc_id"]
            for r in filter_top_quantile(ds, "n_chars", 0.8).take_all()
        )
        return pk, mx, ck, tq

    a = runs(1)
    b = runs(7)
    c = runs(32)
    assert a == b == c
    assert all(len(x) > 0 for x in a)


def test_event_gaps_lag_rule(ray_session):
    """Gap = delta to same user's previous event (ts, then event_id
    order); first event per user is null; invariant to block layout."""
    ray = ray_session
    from console_log_parser_ray.stages.events import event_gaps

    rows = [
        {"event_id": 1, "user_id": 7, "ts": 100},
        {"event_id": 2, "user_id": 7, "ts": 150},
        {"event_id": 3, "user_id": 7, "ts": 150},  # tie -> id order
        {"event_id": 4, "user_id": 9, "ts": 50},
        {"event_id": 5, "user_id": 9, "ts": 500},
    ]
    tbl = pa.table(
        {
            "event_id": pa.array([r["event_id"] for r in rows], pa.int64()),
            "user_id": pa.array([r["user_id"] for r in rows], pa.int64()),
            "ts": pa.array(
                [r["ts"] for r in rows], pa.timestamp("us")
            ),
        }
    )
    want = {1: None, 2: 50, 3: 0, 4: None, 5: 450}
    for np_ in (1, 4):
        got = {
            r["event_id"]: r["gap_us"]
            for r in event_gaps(
                ray.data.from_arrow(tbl).repartition(np_), n_buckets=8
            ).take_all()
        }
        assert got == want


def test_distinct_count_per_group(ray_session):
    """COUNT(DISTINCT user) per type is exact across duplicate pairs in
    different blocks; invariant to block layout."""
    ray = ray_session
    from console_log_parser_ray.stages.events import (
        distinct_count_per_group,
    )

    tbl = pa.table(
        {
            "event_type": pa.array(
                ["a", "a", "a", "b", "b", "a", "b"], pa.string()
            ),
            "user_id": pa.array([1, 1, 2, 1, 1, 2, 3], pa.int64()),
        }
    )
    want = {"a": 2, "b": 2}
    for np_ in (1, 4):
        got = {
            r["event_type"]: r["n_distinct"]
            for r in distinct_count_per_group(
                ray.data.from_arrow(tbl).repartition(np_), n_buckets=8
            ).take_all()
        }
        assert got == want


def test_epoch_upsample(ray_session):
    """Fractional-epoch resampling: per-row copies equal the local
    replica's floor/ceil rule, epoch ordinals run 0..reps-1, e<1
    downsamples, 0 drops the domain; block-layout invariant."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import _fmix32
    from console_log_parser_ray.stages.export import epoch_upsample

    n = 3000
    ids = np.arange(n, dtype=np.int64)
    dom = np.array(["a", "b", "c", "d"])[ids % 4]
    em = {"a": 2700, "b": 1000, "c": 400, "d": 0}
    tbl = pa.table({"doc_id": pa.array(ids), "source": pa.array(dom)})
    emr = np.array([em[d] for d in dom], dtype=np.int64)
    want_reps = emr // 1000 + (_fmix32(ids) % 1000 < emr % 1000)
    base = None
    for np_ in (1, 7):
        rows = epoch_upsample(
            ray.data.from_arrow(tbl).repartition(np_), em
        ).take_all()
        got = sorted((r["doc_id"], r["epoch"]) for r in rows)
        if base is None:
            base = got
        else:
            assert got == base
    want = sorted(
        (int(i), e) for i in ids for e in range(want_reps[i])
    )
    assert base == want
    reps_by_dom = {
        d: want_reps[dom == d].sum() / (n / 4) for d in "abcd"
    }
    assert 2.5 < reps_by_dom["a"] < 2.9  # ~2.7 epochs realised
    assert reps_by_dom["b"] == 1.0
    assert 0.3 < reps_by_dom["c"] < 0.5
    assert reps_by_dom["d"] == 0.0


def test_winsorize_and_zscore_per_group(ray_session):
    """Winsorize clips at the sampled disc-p95 (groups with no sampled
    rows pass through); z-score matches numpy population moments on
    cents and emits null for zero-variance groups.  Both block-layout
    invariant."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        _fmix32,
        winsorize_per_group,
        zscore_per_group,
    )

    rng = np.random.default_rng(21)
    n = 4000
    ids = np.arange(n, dtype=np.int64)
    g = np.where(ids % 2 == 0, "a", "b")
    vals = np.round(rng.uniform(0, 100, n), 2)
    # group "z": constant value -> zero variance
    ids_z = np.arange(n, n + 8, dtype=np.int64)
    tbl = pa.table(
        {
            "event_id": pa.array(np.concatenate([ids, ids_z])),
            "g": pa.array(np.concatenate([g, ["z"] * 8])),
            "value": pa.array(np.concatenate([vals, [7.5] * 8])),
        }
    )
    keep = _fmix32(ids) % 4 == 0
    thr = {}
    for gg, mask in (("a", g == "a"), ("b", g == "b")):
        s = np.sort(vals[keep & mask])
        thr[gg] = float(s[int(np.ceil(0.95 * len(s))) - 1])
    zkeep = _fmix32(ids_z) % 4 == 0
    thr["z"] = 7.5 if zkeep.any() else np.inf

    base_w = base_z = None
    for np_ in (1, 6):
        dsx = ray.data.from_arrow(tbl).repartition(np_)
        got_w = {
            r["event_id"]: r["value_w"]
            for r in winsorize_per_group(
                dsx, "g", "value", id_col="event_id"
            ).take_all()
        }
        got_z = {
            r["event_id"]: r["z"]
            for r in zscore_per_group(
                dsx, "g", "value", id_col="event_id"
            ).take_all()
        }
        if base_w is None:
            base_w, base_z = got_w, got_z
        else:
            assert got_w == base_w and got_z == base_z
    for i in range(n):
        assert base_w[i] == min(vals[i], thr[g[i]])
    for i in range(n, n + 8):
        assert base_z[i] is None  # zero variance -> null
    for gg, mask in (("a", g == "a"), ("b", g == "b")):
        c = np.floor(vals[mask] * 100)
        mean, std = c.mean(), c.std()
        zs = np.array([base_z[i] for i in ids[mask]])
        want = (c - mean) / std
        assert np.allclose(zs, want, atol=1e-9)


def test_count_min_counts(ray_session):
    """CMS estimates never undercount, are block-layout invariant,
    and respect the eps*N overcount bound with room to spare on a
    skewed corpus much smaller than the counter table."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.sketch import count_min_counts

    rng = np.random.default_rng(5)
    # zipf-ish: key k appears ~3000/k times
    keys = np.repeat(
        np.arange(1, 41, dtype=np.int64),
        (3000 / np.arange(1, 41)).astype(int),
    )
    rng.shuffle(keys)
    tbl = pa.table({"user_id": pa.array(keys)})
    true = {
        int(k): int(c) for k, c in zip(*np.unique(keys, return_counts=True))
    }
    probes = list(range(1, 41)) + [999]  # 999 never occurs
    base = None
    for np_ in (1, 5):
        got = {
            r["user_id"]: r["est"]
            for r in count_min_counts(
                ray.data.from_arrow(tbl).repartition(np_),
                "user_id",
                probes=probes,
                d=4,
                w=1024,
            ).take_all()
        }
        if base is None:
            base = got
        else:
            assert got == base
    n = len(keys)
    for k in probes:
        t = true.get(k, 0)
        assert base[k] >= t  # never undercounts
        assert base[k] <= t + int(np.e / 1024 * n) + 40  # loose eps*N


def test_approx_distinct_per_group(ray_session):
    """HLL sketch: block-layout invariant (register max is
    order-free), integer outputs match a single-pass local replica,
    and the estimate lands within the m=64 error regime (~13% SE;
    allow 4 sigma) on a random corpus."""
    ray = ray_session
    from console_log_parser_ray.stages.events import (
        approx_distinct_per_group,
    )

    rng = np.random.default_rng(7)
    n = 5000
    keys = rng.choice(["a", "b", "c"], size=n)
    vals = rng.integers(0, 1200, size=n, dtype=np.int64)
    tbl = pa.table(
        {
            "event_type": pa.array(keys, pa.string()),
            "user_id": pa.array(vals, pa.int64()),
        }
    )

    def local_hll(v):
        h = (np.asarray(v, np.int64) & 0x7FFFFFFF).astype(np.uint64)
        h ^= h >> np.uint64(16)
        h = (h * np.uint64(0x85EBCA6B)) & np.uint64(0xFFFFFFFF)
        h ^= h >> np.uint64(13)
        h = (h * np.uint64(0xC2B2AE35)) & np.uint64(0xFFFFFFFF)
        h ^= h >> np.uint64(16)
        hv = h.astype(np.int64)
        regs = np.zeros(64, dtype=np.int64)
        rank = 27 - np.frexp((hv >> 6).astype(np.float64))[1]
        np.maximum.at(regs, hv & 63, rank)
        return int((np.int64(1) << (27 - regs)).sum()), int(
            (regs == 0).sum()
        )

    want = {}
    for k in "abc":
        inv, nz = local_hll(vals[keys == k])
        want[k] = (inv, nz)

    base = None
    for np_ in (1, 7):
        rows = approx_distinct_per_group(
            ray.data.from_arrow(tbl).repartition(np_), n_kb=4
        ).take_all()
        got = {
            r["event_type"]: (r["inv_sum_scaled"], r["n_zero_regs"])
            for r in rows
        }
        assert got == want
        ests = {r["event_type"]: r["est"] for r in rows}
        if base is None:
            base = ests
        else:
            assert ests == base
    for k in "abc":
        exact = len(np.unique(vals[keys == k]))
        assert abs(base[k] - exact) / exact < 0.52


def test_running_user_totals(ray_session):
    """Per-user ROW_NUMBER and running integer-cents sum follow
    (ts, event_id) order with group reset; invariant to block layout."""
    ray = ray_session
    from console_log_parser_ray.stages.events import running_user_totals

    tbl = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "user_id": pa.array([7, 7, 7, 9, 9], pa.int64()),
            "ts": pa.array([100, 150, 150, 500, 50], pa.timestamp("us")),
            "value": pa.array([1.25, 0.015, -2.5, 10.0, 0.2], pa.float64()),
        }
    )
    # user 7 order: id1(125), id2(1: floor(1.5)), id3(-250)
    # user 9 order: id5(20) then id4(1000)
    want = {
        1: (1, 125),
        2: (2, 126),
        3: (3, -124),
        5: (1, 20),
        4: (2, 1020),
    }
    for np_ in (1, 4):
        got = {
            r["event_id"]: (r["seq"], r["run_cents"])
            for r in running_user_totals(
                ray.data.from_arrow(tbl).repartition(np_), n_buckets=8
            ).take_all()
        }
        assert got == want


def test_dup_spans(ray_session):
    """A span counts as duplicated only when >= 2 DISTINCT docs contain
    it: within-doc repetition doesn't count, short docs emit nothing;
    invariant to block layout."""
    ray = ray_session
    from console_log_parser_ray.stages.textan import dup_spans

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": [
                "a b c d e",      # spans: abc bcd cde
                "z b c d y",      # spans: zbc bcd cdy -> shares bcd
                "a b",            # too short for k=3
                "q q q q",        # spans: qqq (distinct once), no dup
            ],
        }
    )
    want = {1: (3, 1), 2: (3, 1), 4: (1, 0)}
    for np_ in (1, 4):
        got = {
            r["doc_id"]: (r["n_spans"], r["n_dup_spans"])
            for r in dup_spans(
                ray.data.from_arrow(tbl).repartition(np_),
                k=3,
                n_buckets=8,
            ).take_all()
        }
        assert got == want


def test_transition_counts(ray_session):
    """Adjacent-pair transitions stay within a key and follow order_col;
    counts are global across blocks; invariant to block layout."""
    ray = ray_session
    from console_log_parser_ray.stages.events import transition_counts

    tbl = pa.table(
        {
            "conv_id": pa.array(
                ["c1", "c1", "c1", "c2", "c2", "c3"], pa.string()
            ),
            "turn_idx": pa.array([2, 0, 1, 1, 0, 0], pa.int64()),
            "role": pa.array(
                ["tool", "user", "asst", "asst", "user", "user"],
                pa.string(),
            ),
        }
    )
    # c1 ordered: user->asst->tool; c2: user->asst; c3: single row
    want = {("user", "asst"): 2, ("asst", "tool"): 1}
    for np_ in (1, 4):
        got = {
            (r["from_state"], r["to_state"]): r["n"]
            for r in transition_counts(
                ray.data.from_arrow(tbl).repartition(np_), n_buckets=8
            ).take_all()
        }
        assert got == want


def test_global_row_number(ray_session):
    """Exact ROW_NUMBER over (value DESC, id): dense ties get distinct
    consecutive ranks by id; invariant to block layout."""
    ray = ray_session
    from console_log_parser_ray.stages.relational import global_row_number

    tbl = pa.table(
        {
            "doc_id": pa.array([10, 20, 30, 40, 50], pa.int64()),
            "n_chars": pa.array([5, 9, 5, 9, 1], pa.int64()),
        }
    )
    # desc order: (9,20)=1 (9,40)=2 (5,10)=3 (5,30)=4 (1,50)=5
    want = {20: 1, 40: 2, 10: 3, 30: 4, 50: 5}
    for np_ in (1, 4):
        got = {
            r["doc_id"]: r["rank"]
            for r in global_row_number(
                ray.data.from_arrow(tbl).repartition(np_),
                value_col="n_chars",
                id_col="doc_id",
                n_buckets=8,
            ).take_all()
        }
        assert got == want


def test_rolling_user_sum(ray_session):
    """Frame = last `window` rows within the user in (ts, id) order,
    clamped at the user boundary; invariant to block layout."""
    ray = ray_session
    from console_log_parser_ray.stages.events import rolling_user_sum

    tbl = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "user_id": pa.array([7, 7, 7, 7, 9, 9], pa.int64()),
            "ts": pa.array(
                [10, 20, 30, 40, 10, 20], pa.timestamp("us")
            ),
            "value": pa.array(
                [0.01, 0.02, 0.03, 0.04, 0.10, 0.20], pa.float64()
            ),
        }
    )
    # window=3 cents frames: u7: 1,3,6,9  u9: 10,30
    want = {1: 1, 2: 3, 3: 6, 4: 9, 5: 10, 6: 30}
    for np_ in (1, 4):
        got = {
            r["event_id"]: r["win_cents"]
            for r in rolling_user_sum(
                ray.data.from_arrow(tbl).repartition(np_),
                window=3,
                n_buckets=8,
            ).take_all()
        }
        assert got == want


def test_audience_overlap(ray_session):
    """Pairwise distinct-user intersections; duplicate events don't
    inflate counts; users split across blocks still OR into one mask."""
    ray = ray_session
    from console_log_parser_ray.stages.events import audience_overlap

    tbl = pa.table(
        {
            "event_type": pa.array(
                ["a", "b", "a", "a", "b", "c", "a"], pa.string()
            ),
            "user_id": pa.array([1, 1, 1, 2, 2, 2, 3], pa.int64()),
        }
    )
    # users: 1 -> {a,b}, 2 -> {a,b,c}, 3 -> {a}
    want = {("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 1}
    for np_ in (1, 4):
        df = audience_overlap(
            ray.data.from_arrow(tbl).repartition(np_),
            categories=("a", "b", "c"),
            n_buckets=8,
        )
        got = {
            (r.type_a, r.type_b): r.n_both for r in df.itertuples()
        }
        assert got == want
    import pytest

    with pytest.raises(Exception):
        audience_overlap(
            ray.data.from_arrow(tbl), categories=("a", "b"), n_buckets=8
        )


def test_global_ntile(ray_session):
    """ntile semantics: first N%k tiles get N//k+1 rows; ties fall by
    id order; invariant to block layout."""
    ray = ray_session
    from console_log_parser_ray.stages.relational import global_row_number

    # 7 rows, k=3 -> tile sizes 3,2,2
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
            "n_chars": pa.array([5, 5, 5, 9, 9, 1, 1], pa.int64()),
        }
    )
    # asc order: (1,6)(1,7)(5,1)(5,2)(5,3)(9,4)(9,5)
    want = {6: 1, 7: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3}
    for np_ in (1, 4):
        got = {
            r["doc_id"]: r["tile"]
            for r in global_row_number(
                ray.data.from_arrow(tbl).repartition(np_),
                value_col="n_chars",
                id_col="doc_id",
                descending=False,
                out_col="tile",
                ntile=3,
                n_buckets=8,
            ).take_all()
        }
        assert got == want


def test_mad_outlier_flags(ray_session):
    """percentile_disc medians (ceil(N/2) rank), integer threshold;
    planted heavy tail flags exactly the far points."""
    ray = ray_session
    from console_log_parser_ray.stages.events import mad_outlier_flags

    # values: eight 10s, 12, 14, 1000 -> N=11, med=10 (rank 6),
    # deviations sorted: 0x8,2,4,990 -> MAD=0 (rank 6)... use spread:
    vals = [10, 12, 14, 16, 18, 20, 22, 24, 26, 1000]
    # N=10, med = rank 5 asc = 18; |v-18| = 8,6,4,2,0,2,4,6,8,982
    # sorted: 0,2,2,4,4,6,6,8,8,982 -> MAD = rank 5 = 4; thr = 12
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(10)), pa.int64()),
            "n_chars": pa.array(vals, pa.int64()),
        }
    )
    want_outliers = {9}  # only |1000-18| = 982 > 12
    for np_ in (1, 4):
        got = {
            r["doc_id"]
            for r in mad_outlier_flags(
                ray.data.from_arrow(tbl).repartition(np_),
                value_col="n_chars",
                id_col="doc_id",
                k=3,
            ).take_all()
            if r["is_outlier"]
        }
        assert got == want_outliers


def test_conversation_texts(ray_session):
    """Reassembly joins turn texts in turn order regardless of block
    layout; n_turns matches."""
    ray = ray_session
    from console_log_parser_ray.stages.dedup import conversation_texts

    tbl = pa.table(
        {
            "conv_id": pa.array(["b", "a", "a", "b"], pa.string()),
            "turn_idx": pa.array([1, 1, 0, 0], pa.int64()),
            "text": pa.array(["B1", "A1", "A0", "B0"], pa.string()),
        }
    )
    want = {"a": ("A0\nA1", 2), "b": ("B0\nB1", 2)}
    for np_ in (1, 4):
        got = {
            r["conv_id"]: (r["conv_text"], r["n_turns"])
            for r in conversation_texts(
                ray.data.from_arrow(tbl).repartition(np_), n_buckets=8
            ).take_all()
        }
        assert got == want


def test_extract_json_int(ray_session):
    """Missing key, null row, and negative value all behave; invariant
    to block layout."""
    ray = ray_session
    from console_log_parser_ray.stages.events import extract_json_int

    tbl = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "props": pa.array(
                ['{"k": 69}', '{"x": 1}', None, '{"k": -7}'],
                pa.string(),
            ),
        }
    )
    want = {1: 69, 2: None, 3: None, 4: -7}
    for np_ in (1, 4):
        got = {
            r["event_id"]: r["k"]
            for r in extract_json_int(
                ray.data.from_arrow(tbl).repartition(np_)
            ).take_all()
        }
        assert got == want


def test_user_history(ray_session):
    """First-k states in (ts, id) order; tie by id; users with fewer
    than k events keep their full prefix; count is total events."""
    ray = ray_session
    from console_log_parser_ray.stages.events import user_history

    tbl = pa.table(
        {
            "event_id": pa.array([5, 1, 2, 3, 4, 6], pa.int64()),
            "user_id": pa.array([7, 7, 7, 7, 9, 9], pa.int64()),
            "ts": pa.array(
                [10, 10, 20, 30, 10, 5], pa.timestamp("us")
            ),
            "event_type": pa.array(
                ["a", "b", "c", "d", "x", "y"], pa.string()
            ),
        }
    )
    # user 7 order: (10,1)=b (10,5)=a (20,2)=c (30,3)=d -> first3 b,a,c
    # user 9 order: (5,6)=y (10,4)=x -> first3 y,x
    want = {7: ("b,a,c", 4), 9: ("y,x", 2)}
    for np_ in (1, 4):
        got = {
            r["user_id"]: (r["first_k"], r["n_events"])
            for r in user_history(
                ray.data.from_arrow(tbl).repartition(np_),
                k=3,
                n_buckets=8,
            ).take_all()
        }
        assert got == want


def test_line_dedup_corpus_boilerplate(ray_session):
    """line_dedup: a non-empty line in >= min_df distinct docs is
    stripped from every doc; empty lines and within-doc repeats
    (df=1) survive; a doc whose every line is banned still surfaces
    with clean_text='' -- differentially checked against the DuckDB
    formulation at several bucket counts."""
    import duckdb
    import pandas as pd
    import ray

    from console_log_parser_ray.stages.dedup import line_dedup

    docs = [
        (0, "unique alpha\nSHARED FOOTER\n\nunique beta"),
        (1, "SHARED FOOTER\nunique gamma\nrepeat me\nrepeat me"),
        (2, "SHARED FOOTER"),          # fully banned -> ''
        (3, ""),                        # empty doc, 1 empty line kept
        (4, "\n\n"),                    # only empty lines, all kept
        (5, "unique delta\nSHARED FOOTER\nSHARED FOOTER"),
        (6, "solo line never shared"),
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([t for _, t in docs], pa.string()),
        }
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    oracle = con.execute(
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
        "  AS clean_text, count(*) AS n_kept FROM kept GROUP BY doc_id), "
        "tot AS (SELECT doc_id, count(*) AS n FROM lines GROUP BY doc_id) "
        "SELECT d.doc_id, coalesce(a.clean_text, '') AS clean_text, "
        "CAST(t.n - coalesce(a.n_kept, 0) AS BIGINT) AS n_removed "
        "FROM documents d JOIN tot t USING (doc_id) "
        "LEFT JOIN agg a USING (doc_id) ORDER BY doc_id"
    ).df()
    for n_buckets in (1, 4, 64):
        out = (
            line_dedup(ray.data.from_arrow(tbl), n_buckets=n_buckets)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(out, oracle, check_dtype=False)
    # spot-check the semantics directly
    row = oracle.set_index("doc_id")
    assert row.loc[0, "clean_text"] == "unique alpha\n\nunique beta"
    assert row.loc[1, "clean_text"] == "unique gamma\nrepeat me\nrepeat me"
    assert row.loc[2, "clean_text"] == "" and row.loc[2, "n_removed"] == 1
    assert row.loc[4, "clean_text"] == "\n\n" and row.loc[4, "n_removed"] == 0
    assert row.loc[5, "n_removed"] == 2


def test_line_dedup_min_df_threshold(ray_session):
    """min_df=3 keeps a line shared by only two docs."""
    import ray

    from console_log_parser_ray.stages.dedup import line_dedup

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                ["pair\ntriple", "pair\ntriple", "triple\nown"],
                pa.string(),
            ),
        }
    )
    out = (
        line_dedup(ray.data.from_arrow(tbl), min_df=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out.clean_text) == ["pair", "pair", "own"]
    assert list(out.n_removed) == [1, 1, 1]


def test_ngram_rep_signals_fractions(ray_session):
    """Gopher-style n-gram repetition signals: exact counts and
    fractions vs the DuckDB formulation, including docs shorter than
    n tokens (0.0 fractions) and heavy repetition."""
    import duckdb
    import pandas as pd
    import ray

    from console_log_parser_ray.stages.textan import ngram_rep_signals

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "a b a b a b",          # heavy bigram repetition
                    "one two three four",   # all grams distinct
                    "x",                    # < 2 tokens: all zero
                    "",                     # empty
                    "t t t t t",            # degenerate single token
                ],
                pa.string(),
            ),
        }
    )
    out = (
        ngram_rep_signals(ray.data.from_arrow(tbl))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    ref = con.execute(
        "WITH dt AS (SELECT doc_id, regexp_extract_all(text, '\\S+') "
        "  AS tk FROM documents), "
        "g2 AS (SELECT doc_id, unnest(list_transform("
        "  generate_series(1, len(tk)-1), i -> concat_ws(' ', tk[i], "
        "  tk[i+1]))) AS g FROM dt WHERE len(tk) >= 2), "
        "c2 AS (SELECT doc_id, g, count(*) AS c FROM g2 "
        "  GROUP BY doc_id, g), "
        "a2 AS (SELECT doc_id, sum(c) AS n, count(*) AS d, max(c) AS t "
        "  FROM c2 GROUP BY doc_id) "
        "SELECT d.doc_id, CAST(coalesce(a2.n, 0) AS BIGINT) AS n_grams_2, "
        "coalesce((a2.n - a2.d) * 1.0 / a2.n, 0.0) AS dup_2gram_frac, "
        "coalesce(a2.t * 1.0 / a2.n, 0.0) AS top_2gram_frac "
        "FROM documents d LEFT JOIN a2 USING (doc_id) ORDER BY doc_id"
    ).df()
    pd.testing.assert_frame_equal(
        out[["doc_id", "n_grams_2", "dup_2gram_frac", "top_2gram_frac"]],
        ref,
        check_dtype=False,
    )
    r = out.set_index("doc_id")
    # 'a b a b a b': 5 bigrams, 2 distinct ('a b' x3, 'b a' x2)
    assert r.loc[0, "n_grams_2"] == 5
    assert r.loc[0, "dup_2gram_frac"] == (5 - 2) / 5
    assert r.loc[0, "top_2gram_frac"] == 3 / 5
    assert r.loc[1, "dup_2gram_frac"] == 0.0
    assert (r.loc[2] == 0).all() and (r.loc[3] == 0).all()
    # 't t t t t': 4 identical bigrams, 3 identical trigrams
    assert r.loc[4, "dup_2gram_frac"] == 3 / 4
    assert r.loc[4, "top_3gram_frac"] == 1.0
    assert r.loc[4, "n_grams_4"] == 2 and r.loc[4, "dup_4gram_frac"] == 0.5


def test_semdedup_planted_copies(ray_session):
    """SemDeDup: cluster with the deterministic k-means then drop
    vectors with a smaller-id cosine>=tau neighbor in-cluster --
    checked against a numpy reference implementing the identical
    algorithm, with planted exact copies and a perturbed near-dup."""
    import ray

    from console_log_parser_ray.stages.similarity import semdedup

    rng = np.random.default_rng(7)
    base = rng.normal(size=(60, 8)).astype(np.float64)
    ids = np.arange(60, dtype=np.int64)
    # plant: exact copies of ids 0..9 at 1000+, plus one tiny
    # perturbation (still cosine ~1) of id 10 at 2000
    near = base[10] + 1e-6 * rng.normal(size=8)
    vecs = np.concatenate([base, base[:10], near[None, :]])
    vids = np.concatenate([ids, ids[:10] + 1000, [2000]])
    tbl = pa.table(
        {
            "vec_id": pa.array(vids),
            "embedding": pa.array([list(map(float, v)) for v in vecs]),
        }
    )
    kk, tau = 4, 0.9
    out = {
        r["vec_id"]: (r["cluster"], r["keep"])
        for r in semdedup(
            ray.data.from_arrow(tbl).repartition(5), k=kk, tau=tau
        ).take_all()
    }
    # numpy reference: same seeding, same 2-round Lloyd's, same prune
    order = np.argsort(vids)
    cents = vecs[order[:kk]].copy()
    for it in range(2):
        d2 = ((vecs[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        if it == 0:
            for j in range(kk):
                m = assign == j
                if m.any():
                    cents[j] = vecs[m].mean(axis=0)
    sn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    ref = {}
    for j in range(kk):
        m = np.flatnonzero(assign == j)
        m = m[np.argsort(vids[m])]
        sims = sn[m] @ sn[m].T
        removed = np.tril(sims >= tau, -1).any(axis=1)
        for i, r in zip(m, removed):
            ref[int(vids[i])] = (int(assign[i]), not bool(r))
    assert out == ref
    # every planted copy (and the perturbed near-dup) is removed;
    # originals may also be organically close in 8-dim, so only the
    # lowest id is unconditionally kept
    assert all(not out[v][1] for v in range(1000, 1010))
    assert not out[2000][1]
    assert out[0][1]


def test_rollup_agg(ray_session):
    """GROUP BY ROLLUP: finest rows + per-prefix subtotals + grand
    total, integer-cent sums, vs DuckDB; invariant to block layout."""
    ray = ray_session
    import duckdb

    from console_log_parser_ray.stages.relational import rollup_agg

    tbl = pa.table(
        {
            "a": pa.array(["x", "x", "y", "y", "y"], pa.string()),
            "b": pa.array(["p", "q", "p", "p", "q"], pa.string()),
            "v": pa.array([1.25, 2.5, 0.99, 4.0, 10.01], pa.float64()),
        }
    )
    want = duckdb.sql(
        "SELECT a, b, CAST(count(*) AS BIGINT) AS n_rows, "
        "CAST(sum(CAST(floor(v * 100) AS BIGINT)) AS BIGINT) "
        "AS sum_cents FROM tbl GROUP BY ROLLUP(a, b)"
    ).df()
    want = set(
        (r.a, r.b, r.n_rows, r.sum_cents)
        for r in want.itertuples()
    )
    for np_ in (1, 3):
        got = rollup_agg(
            ray.data.from_arrow(tbl).repartition(np_), ["a", "b"], "v"
        ).to_pandas()
        got_set = set(
            (r.a, r.b, r.n_rows, r.sum_cents)
            for r in got.itertuples()
        )
        assert got_set == want
        assert len(got) == len(want)


def test_rank_fractions_per_group(ray_session):
    """percent_rank + cume_dist: ties share fractions, singleton group
    gets (0.0, 1.0); doubles bit-equal DuckDB; big path == small."""
    ray = ray_session
    import duckdb

    from console_log_parser_ray.stages.relational import (
        rank_fractions_per_group,
    )

    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(1, 7)), pa.int64()),
            "g": pa.array(["a", "a", "a", "a", "b", "a"], pa.string()),
            "v": pa.array([1, 1, 3, 7, 5, 3], pa.int64()),
        }
    )
    want = duckdb.sql(
        "SELECT doc_id, percent_rank() OVER w AS pr, "
        "cume_dist() OVER w AS cd FROM tbl "
        "WINDOW w AS (PARTITION BY g ORDER BY v)"
    ).df()
    want = {r.doc_id: (r.pr, r.cd) for r in want.itertuples()}
    for cap in (1_000_000, 1):  # small path, then forced big path
        got = rank_fractions_per_group(
            ray.data.from_arrow(tbl).repartition(2),
            "g",
            "v",
            max_distinct=cap,
            n_buckets=8,
        ).to_pandas()
        got_map = {
            r.doc_id: (r.pct_rank, r.cume_dist)
            for r in got.itertuples()
        }
        # bit-exact: single IEEE division of exact ints on both sides
        assert got_map == want


def test_gapfill_user_windows(ray_session):
    """Gap-fill: missing windows inside [min, max] per user emitted
    with 0; partials merge across blocks; no fill outside the span."""
    ray = ray_session
    from console_log_parser_ray.stages.events import gapfill_user_windows

    us = 3_600_000_000
    tbl = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2, 1], pa.int64()),
            # user 1: windows 0, 0, 3 (gap 1-2), plus one more in 0
            # from another block; user 2: single window 5
            "ts": pa.array(
                [10, us - 1, 3 * us + 5, 5 * us, 20],
                pa.timestamp("us"),
            ),
        }
    )
    want = {
        (1, 0): 3,
        (1, 1): 0,
        (1, 2): 0,
        (1, 3): 1,
        (2, 5): 1,
    }
    for np_ in (1, 3):
        got = gapfill_user_windows(
            ray.data.from_arrow(tbl).repartition(np_), n_buckets=4
        ).to_pandas()
        got_map = {
            (r.user_id, r.window_id): r.n_events
            for r in got.itertuples()
        }
        assert got_map == want


def test_latest_state(ray_session):
    """Last-writer-wins: greatest (ts, id) per key survives, ts ties
    break by id, payload rides along; cross-block duplicates fold."""
    ray = ray_session
    from console_log_parser_ray.stages.events import latest_state

    tbl = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "event_type": pa.array(
                ["c", "c", "v", "c", "c"], pa.string()
            ),
            "event_id": pa.array([10, 11, 12, 13, 9], pa.int64()),
            "ts": pa.array([100, 100, 50, 70, 70], pa.timestamp("us")),
            "value": pa.array([1.5, 2.5, 3.5, 4.5, 5.5], pa.float64()),
        }
    )
    # (1,c): ts tie 100/100 -> id 11 wins; (2,c): ts tie -> id 13 wins
    want = {(1, "c"): (11, 2.5), (1, "v"): (12, 3.5), (2, "c"): (13, 4.5)}
    for np_ in (1, 4):
        got = latest_state(
            ray.data.from_arrow(tbl).repartition(np_), n_buckets=4
        ).to_pandas()
        got_map = {
            (r.user_id, r.event_type): (r.event_id, r.value)
            for r in got.itertuples()
        }
        assert got_map == want


def test_scd2_intervals(ray_session):
    """SCD2: valid_to = next change ts of the same (user, state) key
    in (ts, id) order, null-open for the latest row; layout
    invariant."""
    import pandas as pd

    ray = ray_session
    from console_log_parser_ray.stages.events import scd2_intervals

    tbl = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2, 1], pa.int64()),
            "event_type": pa.array(
                ["c", "c", "v", "c", "c"], pa.string()
            ),
            "event_id": pa.array([10, 11, 12, 13, 14], pa.int64()),
            "ts": pa.array(
                [100, 200, 150, 70, 200], pa.timestamp("us")
            ),
        }
    )
    # (1,c) in (ts,id) order: id10@100 -> id11@200 -> id14@200
    want = {10: 200, 11: 200, 14: None, 12: None, 13: None}
    for np_ in (1, 4):
        got = scd2_intervals(
            ray.data.from_arrow(tbl).repartition(np_), n_buckets=4
        ).to_pandas()
        got_map = {
            int(r.event_id): (
                None if pd.isna(r.valid_to) else r.valid_to.value // 1000
            )
            for r in got.itertuples()
        }
        assert got_map == want
        assert len(got) == 5
        from_map = {
            int(r.event_id): r.valid_from.value // 1000
            for r in got.itertuples()
        }
        assert from_map == {10: 100, 11: 200, 12: 150, 13: 70, 14: 200}


def test_rolling_time_sum_range_frame(ray_session):
    """Event-time RANGE frame vs the DuckDB window, randomized: peers
    (equal ts) share the frame both ways, frame edge inclusive at
    ts - window; both the composite-axis fast path and the forced
    per-segment fallback (huge ts spread x many users) agree."""
    import duckdb

    import ray.data

    from console_log_parser_ray.stages.events import rolling_time_sum

    rng = np.random.default_rng(7)
    n = 600
    # second config pushes n_seg * span past 2^62 (40 segments x a
    # ~2.4e17us spread in ONE bucket) -> the per-segment fallback,
    # while staying inside Python datetime range for take_all
    for base, spread, nb in (
        (1_000_000, 0, 4),
        (1_000_000_000, 240_000_000_000_000_000, 1),
    ):
        ts = base + rng.integers(0, 5000, n)
        if spread:
            ts = ts + rng.integers(0, 2, n) * spread
        tbl = pa.table(
            {
                "event_id": pa.array(np.arange(n), pa.int64()),
                "user_id": pa.array(
                    rng.integers(0, 40, n), pa.int64()
                ),
                "ts": pa.array(ts.astype(np.int64), pa.timestamp("us")),
                "value": pa.array(
                    rng.integers(0, 500, n) / 100.0, pa.float64()
                ),
            }
        )
        con = duckdb.connect()
        con.register("ev", tbl)
        want = dict(
            con.execute(
                "SELECT event_id, CAST(sum(CAST(floor(value * 100) AS "
                "BIGINT)) OVER (PARTITION BY user_id ORDER BY ts "
                "RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW) "
                "AS BIGINT) FROM (SELECT event_id, user_id, "
                "epoch_us(ts) AS ts, value FROM ev)"
            ).fetchall()
        )
        got = {
            r["event_id"]: r["win_cents"]
            for r in rolling_time_sum(
                ray.data.from_arrow(tbl).repartition(3),
                window_us=1000,
                n_buckets=nb,
            ).take_all()
        }
        assert got == want


def test_hash_join_full_outer(ray_session):
    """FULL OUTER: both unmatched sides survive with the key coalesced
    into one column; null keys never match and are kept unmatched from
    both sides (SQL semantics)."""
    import pandas as pd

    import ray.data

    from console_log_parser_ray.stages.relational import hash_join

    left = pa.table(
        {
            "k": pa.array([1, 2, None], pa.int64()),
            "lv": pa.array([10, 20, 30], pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([2, 3, None], pa.int64()),
            "rv": pa.array([200, 300, 999], pa.int64()),
        }
    )
    got = hash_join(
        ray.data.from_arrow(left).repartition(2),
        ray.data.from_arrow(right).repartition(2),
        on="k",
        right_on="rk",
        how="outer",
        n_buckets=4,
    ).to_pandas()
    assert list(got.columns) == ["k", "lv", "rv"]
    rows = {
        (
            None if pd.isna(r.k) else int(r.k),
            None if pd.isna(r.lv) else int(r.lv),
            None if pd.isna(r.rv) else int(r.rv),
        )
        for r in got.itertuples()
    }
    assert rows == {
        (1, 10, None),
        (2, 20, 200),
        (None, 30, None),
        (3, None, 300),
        (None, None, 999),
    }
    assert len(got) == 5


def test_fuzzy_pairs_ed1(ray_session):
    """FastSS ED<=1 self-join: substitution / insertion / deletion hit
    at distance 1, exact duplicates at 0, transpositions (ED 2) and
    far strings excluded; pairs sharing several signatures emit once;
    randomized differential vs DuckDB levenshtein."""
    import duckdb

    import ray.data

    from console_log_parser_ray.stages.dedup import fuzzy_pairs_ed1

    rows = [
        (1, "kitten"),
        (2, "mitten"),   # sub -> d1 with 1
        (3, "kitte"),    # del -> d1 with 1
        (4, "kittens"),  # ins -> d1 with 1, d2 with 3
        (5, "ktiten"),   # transposition of 1 -> ED 2, excluded
        (6, "kitten"),   # exact dup of 1 -> d0
        (7, "aa"),       # duplicate deletion sigs within one string
        (8, "ab"),
        (9, "zzzz"),
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([i for i, _ in rows], pa.int64()),
            "text": pa.array([t for _, t in rows], pa.string()),
        }
    )
    want = {
        (1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 6, 0),
        (2, 6, 1), (3, 6, 1), (4, 6, 1), (3, 4, None),
        (7, 8, 1),
    }
    want = {(a, b, d) for (a, b, d) in want if d is not None}
    for np_ in (1, 4):
        got = {
            (r["id_a"], r["id_b"], r["dist"])
            for r in fuzzy_pairs_ed1(
                ray.data.from_arrow(tbl).repartition(np_), n_buckets=8
            ).take_all()
        }
        assert got == want

    # randomized: short strings over a tiny alphabet force plenty of
    # near-misses; oracle = brute-force levenshtein
    rng = np.random.default_rng(11)
    n = 250
    texts = [
        "".join(rng.choice(list("abc"), size=rng.integers(0, 5)))
        for _ in range(n)
    ]
    rtbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    con = duckdb.connect()
    con.register("t", rtbl)
    oracle = {
        tuple(r)
        for r in con.execute(
            "SELECT a.doc_id, b.doc_id, CAST(levenshtein(a.text, "
            "b.text) AS BIGINT) FROM t a JOIN t b ON "
            "a.doc_id < b.doc_id WHERE levenshtein(a.text, b.text) <= 1"
        ).fetchall()
    }
    got = {
        (r["id_a"], r["id_b"], r["dist"])
        for r in fuzzy_pairs_ed1(
            ray.data.from_arrow(rtbl).repartition(3), n_buckets=8
        ).take_all()
    }
    assert got == oracle


def test_cooccur_topk(ray_session):
    """Doc-level co-occurrence over the top-DF vocab vs the DuckDB
    formulation: within-doc repeats count once, vocab boundary ties
    break by token, pair order is lexicographic; randomized corpus."""
    import duckdb

    import ray.data

    from console_log_parser_ray.stages.textan import cooccur_topk

    rng = np.random.default_rng(5)
    words = [f"w{i:02d}" for i in range(30)]
    docs = [
        " ".join(rng.choice(words, size=rng.integers(0, 12)))
        for _ in range(120)
    ] + ["", "   "]
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(len(docs)), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    for vs, k in ((8, 10), (16, 25)):
        want = con.execute(
            "WITH tk AS (SELECT doc_id, unnest(regexp_extract_all("
            "coalesce(text, ''), '\\S+')) AS t FROM documents), "
            "tok AS (SELECT DISTINCT doc_id, t FROM tk), "
            "df AS (SELECT t, count(*) AS df FROM tok GROUP BY t), "
            f"vocab AS (SELECT t FROM df ORDER BY df DESC, t LIMIT {vs}), "
            "p AS (SELECT a.t ta, b.t tb, count(*) n FROM tok a "
            "JOIN tok b ON a.doc_id = b.doc_id AND a.t < b.t "
            "WHERE a.t IN (SELECT t FROM vocab) AND b.t IN "
            "(SELECT t FROM vocab) GROUP BY 1, 2) "
            "SELECT ta, tb, CAST(n AS BIGINT) FROM p "
            f"ORDER BY n DESC, ta, tb LIMIT {k}"
        ).fetchall()
        got = [
            (r["token_a"], r["token_b"], r["n_docs"])
            for r in cooccur_topk(
                ray.data.from_arrow(tbl).repartition(3),
                vocab_size=vs,
                k=k,
                n_buckets=4,
            ).take_all()
        ]
        assert got == [tuple(w) for w in want]


def test_profile_table(ray_session):
    """Per-column profile: nulls excluded from distinct, mixed types
    compared through injective string casts, all-null column profiles
    with n_distinct 0, duplicate values across blocks fold."""
    import ray.data

    from console_log_parser_ray.stages.profile import profile_table

    tbl = pa.table(
        {
            "a": pa.array([1, 1, 2, None, 3], pa.int64()),
            "b": pa.array(
                ["x", None, "x", "y", None], pa.string()
            ),
            "c": pa.array([None] * 5, pa.float64()),
            "d": pa.array(
                [1.5, 1.5, 2.25, -7.0, 0.1], pa.float64()
            ),
        }
    )
    want = {
        "a": (5, 1, 3),
        "b": (5, 2, 2),
        "c": (5, 5, 0),
        "d": (5, 0, 4),
    }
    for np_ in (1, 4):
        got = profile_table(
            ray.data.from_arrow(tbl).repartition(np_), n_buckets=4
        )
        got_map = {
            r.col_name: (r.n_rows, r.n_nulls, r.n_distinct)
            for r in got.itertuples()
        }
        assert got_map == want
        assert list(got["col_name"]) == sorted(got["col_name"])


def test_group_regression(ray_session):
    """Closed-form least squares from integer moments vs numpy
    polyfit-free reference; degenerate group (single distinct x)
    yields non-finite like SQL double division; layout invariant."""
    import ray.data

    from console_log_parser_ray.stages.relational import group_regression

    rng = np.random.default_rng(3)
    n = 500
    g = rng.choice(["a", "b"], n)
    x = rng.integers(1, 50, n).astype(np.float64)
    y = np.where(g == "a", 3 * x + 7, -2 * x + 100) + rng.integers(
        0, 5, n
    )
    y = y / 100.0  # engine applies y_scale=100 -> back to ints
    tbl = pa.table(
        {
            "g": pa.array(g),
            "x": pa.array(x, pa.float64()),
            "y": pa.array(y, pa.float64()),
        }
    )
    want = {}
    for grp in ("a", "b"):
        m = g == grp
        xi = np.floor(x[m]).astype(np.int64)
        yi = np.floor(y[m] * 100).astype(np.int64)
        nf, sxf, syf = float(m.sum()), float(xi.sum()), float(yi.sum())
        sxxf, sxyf = float((xi * xi).sum()), float((xi * yi).sum())
        slope = (nf * sxyf - sxf * syf) / (nf * sxxf - sxf * sxf)
        want[grp] = (slope, (syf - slope * sxf) / nf)
    for np_ in (1, 4):
        got = group_regression(
            ray.data.from_arrow(tbl).repartition(np_),
            group_col="g",
            x_col="x",
            y_col="y",
        ).to_pandas()
        got_map = {
            r.g: (r.slope, r.intercept) for r in got.itertuples()
        }
        assert got_map == want  # bit-exact

    # degenerate: one distinct x in the group -> den == 0 -> inf/nan
    d = pa.table(
        {
            "g": pa.array(["z", "z"]),
            "x": pa.array([5.0, 5.0], pa.float64()),
            "y": pa.array([1.0, 2.0], pa.float64()),
        }
    )
    got = group_regression(
        ray.data.from_arrow(d), group_col="g", x_col="x", y_col="y"
    ).to_pandas()
    assert not np.isfinite(got["slope"].iloc[0])


def test_snapshot_diff(ray_session):
    """Added / removed / changed / same classification; null-safe
    payload compare (null == null is 'same', null vs value is
    'changed'); all-null payload rows still classify by presence."""
    import ray.data

    from console_log_parser_ray.stages.relational import snapshot_diff

    old = pa.table(
        {
            "k": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "v": pa.array([10, 20, None, None, None], pa.int64()),
        }
    )
    new = pa.table(
        {
            "k": pa.array([2, 3, 4, 5, 6], pa.int64()),
            "v": pa.array([20, 30, None, 55, None], pa.int64()),
        }
    )
    want = {
        1: "removed",
        2: "same",
        3: "changed",   # null -> 30
        4: "same",      # null == null
        5: "changed",   # null -> 55
        6: "added",
    }
    for np_ in (1, 3):
        got = snapshot_diff(
            ray.data.from_arrow(old).repartition(np_),
            ray.data.from_arrow(new).repartition(np_),
            key="k",
            compare_cols=["v"],
            n_buckets=4,
        ).to_pandas()
        got_map = {int(r.k): r.status for r in got.itertuples()}
        assert got_map == want


def test_throttle_events(ray_session):
    """LAG-throttle: first of key kept, strictly-greater-than-window
    gaps kept, boundary gap == window dropped; keys independent."""
    ray = ray_session
    from console_log_parser_ray.stages.events import throttle_events

    tbl = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "user_id": pa.array([7, 7, 7, 7, 7, 9], pa.int64()),
            "event_type": pa.array(
                ["c", "c", "c", "v", "c", "c"], pa.string()
            ),
            # gaps within (7,c): 100 (== window, dropped),
            # 101 (> window, kept), then 50 (dropped)
            "ts": pa.array(
                [1000, 1100, 1201, 1150, 1251, 500],
                pa.timestamp("us"),
            ),
        }
    )
    want = {1, 3, 4, 6}
    for np_ in (1, 4):
        got = {
            r["event_id"]
            for r in throttle_events(
                ray.data.from_arrow(tbl).repartition(np_),
                window_us=100,
                n_buckets=4,
            ).take_all()
        }
        assert got == want


def test_weighted_sample(ray_session):
    """Deterministic weighted top-k: exact equality with a single-
    process md5 reference at any layout; k larger than the corpus
    returns everything; zero-weight rows can still win via u * 1."""
    import hashlib

    import ray.data

    from console_log_parser_ray.stages.export import weighted_sample

    rng = np.random.default_rng(9)
    n = 400
    w = rng.integers(0, 1000, n)
    w[:5] = 0
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "n_chars": pa.array(w.astype(np.int64), pa.int64()),
        }
    )
    scores = np.array(
        [
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:13], 16)
                / float(1 << 52)
            )
            * (float(wi) + 1.0)
            for i, wi in enumerate(w)
        ]
    )
    order = np.lexsort((np.arange(n), -scores))
    for k in (25, 1000):
        want = [(int(i), scores[i]) for i in order[:k]]
        for np_ in (1, 5):
            got = [
                (r["doc_id"], r["score"])
                for r in weighted_sample(
                    ray.data.from_arrow(tbl).repartition(np_), k=k
                ).take_all()
            ]
            assert got == want


def test_cube_agg(ray_session):
    """CUBE lattice vs DuckDB GROUP BY CUBE with GROUPING() bitmask:
    data NULLs in a key column stay distinguishable from subtotal
    NULLs via grouping_id; integer-cent sums exact; layout
    invariant."""
    import duckdb

    import ray.data

    from console_log_parser_ray.stages.relational import cube_agg

    rng = np.random.default_rng(13)
    n = 900
    a = rng.choice(["x", "y", "z"], n).astype(object)
    a[rng.random(n) < 0.1] = None  # data nulls vs subtotal nulls
    tbl = pa.table(
        {
            "a": pa.array(list(a), pa.string()),
            "b": pa.array(rng.choice(["p", "q"], n)),
            "v": pa.array(
                np.floor(rng.uniform(-30, 30, n) * 100) / 100.0,
                pa.float64(),
            ),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    ref = con.execute(
        "SELECT a, b, CAST(GROUPING(a, b) AS BIGINT) AS grouping_id, "
        "CAST(count(*) AS BIGINT) AS n_rows, "
        "CAST(sum(CAST(floor(v * 100) AS BIGINT)) AS BIGINT) AS "
        "sum_cents FROM t GROUP BY CUBE(a, b)"
    ).fetchdf()
    want = {
        (r.a if isinstance(r.a, str) else None,
         r.b if isinstance(r.b, str) else None,
         r.grouping_id): (r.n_rows, r.sum_cents)
        for r in ref.itertuples()
    }
    for np_ in (1, 4):
        got = cube_agg(
            ray.data.from_arrow(tbl).repartition(np_),
            keys=["a", "b"],
            value_col="v",
        )
        got_map = {}
        for r in got.to_pandas().itertuples():
            ka = r.a if isinstance(r.a, str) else None
            kb = r.b if isinstance(r.b, str) else None
            got_map[(ka, kb, r.grouping_id)] = (r.n_rows, r.sum_cents)
        assert got_map == want


def test_quantile_cont_per_group(ray_session):
    """percentile_cont semantics, bit-exact vs the explicit IEEE lerp
    over integer order statistics; exact-index q (frac 0) degenerates
    to the order statistic; singleton group returns its value."""
    import ray.data

    from console_log_parser_ray.stages.events import (
        quantile_cont_per_group,
    )

    rng = np.random.default_rng(21)
    n = 700
    g = rng.choice(["a", "b", "c"], n)
    v = rng.integers(0, 500, n) / 100.0
    tbl = pa.table(
        {
            "g": pa.array(g),
            "value": pa.array(v, pa.float64()),
        }
    )
    want = {}
    for grp in ("a", "b", "c"):
        vals = np.sort(
            np.floor(v[g == grp] * 100).astype(np.int64)
        )
        nf = np.float64(len(vals) - 1)
        row = []
        for q in (0.5, 0.9):
            h = nf * np.float64(q)
            lo, hi = vals[int(np.floor(h))], vals[int(np.ceil(h))]
            row.append(
                float(
                    np.float64(lo)
                    + (np.float64(hi) - np.float64(lo))
                    * (h - np.floor(h))
                )
            )
        want[grp] = tuple(row)
    for np_ in (1, 4):
        got = quantile_cont_per_group(
            ray.data.from_arrow(tbl).repartition(np_),
            group_col="g",
            value_col="value",
            qs=(0.5, 0.9),
        ).to_pandas()
        got_map = {
            r.g: (r.p50_cents, r.p90_cents) for r in got.itertuples()
        }
        assert got_map == want

    s = pa.table(
        {
            "g": pa.array(["solo"]),
            "value": pa.array([1.23], pa.float64()),
        }
    )
    got = quantile_cont_per_group(
        ray.data.from_arrow(s), group_col="g", value_col="value"
    ).to_pandas()
    assert got["p50_cents"].iloc[0] == 123.0
    assert got["p90_cents"].iloc[0] == 123.0


def test_cohort_retention(ray_session):
    """Cohort = window of first activity; cells count DISTINCT active
    cohort members (duplicate events don't inflate); cross-block
    users fold into one cohort."""
    ray = ray_session
    from console_log_parser_ray.stages.events import cohort_retention

    us = 100
    # user 1: wins 0,0,1,3 ; user 2: wins 1,1 ; user 3: win 3
    tbl = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 1, 2, 2, 3], pa.int64()),
            "ts": pa.array(
                [5, 50, 150, 350, 120, 160, 399],
                pa.timestamp("us"),
            ),
        }
    )
    want = {
        (0, 0): 1, (0, 1): 1, (0, 3): 1,   # cohort 0 = user 1
        (1, 1): 1,                          # cohort 1 = user 2
        (3, 3): 1,                          # cohort 3 = user 3
    }
    for np_ in (1, 4):
        got = cohort_retention(
            ray.data.from_arrow(tbl).repartition(np_),
            window_us=us,
            n_buckets=4,
        ).to_pandas()
        got_map = {
            (r.cohort, r.win): r.n_users for r in got.itertuples()
        }
        assert got_map == want


def test_knn_graph(ray_session):
    """Exact kNN graph vs brute-force numpy on quantized integers:
    self excluded, ties broken by neighbor id, k > corpus clamps."""
    import ray.data

    from console_log_parser_ray.stages.similarity import knn_graph

    rng = np.random.default_rng(17)
    n, d = 60, 8
    vecs = rng.uniform(-1, 1, (n, d)).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs],
                pa.list_(pa.float32()),
            ),
        }
    )
    q = np.floor(vecs.astype(np.float64) * 1000)
    scores = q @ q.T
    np.fill_diagonal(scores, -np.inf)
    for k in (4, 100):
        kk = min(k, n)
        want = set()
        for i in range(n):
            idx = np.lexsort((ids, -scores[i]))[:kk]
            idx = idx[np.isfinite(scores[i][idx])]
            for j in idx:
                want.add((i, int(ids[j]), scores[i][j]))
        got = {
            (r["vec_id"], r["neighbor_id"], r["dot"])
            for r in knn_graph(
                ray.data.from_arrow(tbl).repartition(3), k=k
            ).take_all()
        }
        assert got == want


def test_merge_upsert(ray_session):
    """MERGE: delete wins over an earlier update (seq order), update
    replaces payload, insert adds, untouched base rows survive, a
    delete of a nonexistent key is a no-op; layout invariant."""
    import ray.data

    from console_log_parser_ray.stages.events import merge_upsert

    base = pa.table(
        {
            "k": pa.array([1, 2, 3, 4], pa.int64()),
            "v": pa.array([10, 20, 30, 40], pa.int64()),
        }
    )
    changes = pa.table(
        {
            "k": pa.array([2, 2, 3, 5, 9], pa.int64()),
            "v": pa.array([21, None, 31, 50, None], pa.int64()),
            "op": pa.array(["u", "d", "u", "u", "d"], pa.string()),
            "change_seq": pa.array([1, 2, 1, 1, 1], pa.int64()),
        }
    )
    want = {1: 10, 3: 31, 4: 40, 5: 50}
    for np_ in (1, 3):
        got = merge_upsert(
            ray.data.from_arrow(base).repartition(np_),
            ray.data.from_arrow(changes).repartition(np_),
            key_cols=["k"],
            n_buckets=4,
        ).to_pandas()
        got_map = {int(r.k): int(r.v) for r in got.itertuples()}
        assert got_map == want


def test_bool_search(ray_session):
    """AND semantics: all terms must appear as whole tokens (no
    substring hits), empty/null docs never match, repeats don't
    double-count; layout invariant."""
    import ray.data

    from console_log_parser_ray.stages.search import bool_search

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "text": pa.array(
                [
                    "alpha beta gamma",
                    "alpha alpha beta",
                    "alphabet beta",     # substring must NOT match
                    "beta",
                    "",
                    None,
                ],
                pa.string(),
            ),
        }
    )
    for np_ in (1, 3):
        got = {
            r["doc_id"]
            for r in bool_search(
                ray.data.from_arrow(tbl).repartition(np_),
                terms=["alpha", "beta"],
            ).take_all()
        }
        assert got == {1, 2}


def test_hash_join_salted(ray_session):
    """Salted skew join returns EXACTLY the unsalted results for
    inner/left/semi/anti — incl. duplicate left rows on a hot key and
    null keys on both sides; outer + salt is rejected."""
    import ray.data

    from console_log_parser_ray.stages.relational import hash_join

    rng = np.random.default_rng(33)
    n = 800
    # hot key 7 takes half the left side
    keys = np.where(rng.random(n) < 0.5, 7, rng.integers(0, 40, n))
    left = pa.table(
        {
            "k": pa.array(
                [None if i < 5 else int(x)
                 for i, x in enumerate(keys)],
                pa.int64(),
            ),
            "lv": pa.array(np.arange(n, dtype=np.int64)),
        }
    )
    right = pa.table(
        {
            "rk": pa.array(
                [None, 7, 7, 1, 2, 3, 50], pa.int64()
            ),
            "rv": pa.array(
                np.arange(7, dtype=np.int64) + 100
            ),
        }
    )
    lds = ray.data.from_arrow(left).repartition(4)
    rds = ray.data.from_arrow(right).repartition(2)
    for how in ("inner", "left", "semi", "anti"):
        plain = hash_join(
            lds, rds, on="k", right_on="rk", how=how, n_buckets=8
        ).to_pandas()
        salted = hash_join(
            lds, rds, on="k", right_on="rk", how=how, n_buckets=8,
            salt=4,
        ).to_pandas()
        key_cols = list(plain.columns)
        a = plain.sort_values(key_cols).reset_index(drop=True)
        b = salted.sort_values(key_cols).reset_index(drop=True)
        assert a.equals(b), how
        assert len(a) > 0
    with pytest.raises(ValueError):
        hash_join(
            lds, rds, on="k", right_on="rk", how="outer", salt=2
        )


def test_knn_graph_broadcast_guard(ray_session):
    """The exact-graph corpus broadcast is capped: over
    max_broadcast_rows raises with guidance instead of OOMing the
    driver (the rank family's cardinality-cap contract)."""
    import ray.data

    from console_log_parser_ray.stages.similarity import knn_graph

    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(10, dtype=np.int64)),
            "embedding": pa.array(
                [[0.1, 0.2]] * 10, pa.list_(pa.float32())
            ),
        }
    )
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(ValueError, match="max_broadcast_rows"):
        knn_graph(ds, k=2, max_broadcast_rows=5)
    assert knn_graph(ds, k=2, max_broadcast_rows=10).count() == 20


def test_class_centroids(ray_session):
    """Exact integer centroid sums vs a single-process numpy
    reference, bit-equal means at any block layout; singleton label
    covered."""
    import ray.data

    from console_log_parser_ray.stages.similarity import class_centroids

    rng = np.random.default_rng(41)
    n, d = 200, 6
    vecs = rng.uniform(-1, 1, (n, d)).astype(np.float32)
    labels = rng.integers(0, 4, n).astype(np.int64)
    labels[-1] = 99  # singleton class
    tbl = pa.table(
        {
            "label": pa.array(labels),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs],
                pa.list_(pa.float32()),
            ),
        }
    )
    q = np.floor(vecs.astype(np.float64) * 1000)
    want = {}
    for lab in np.unique(labels):
        sub = q[labels == lab]
        for dim in range(d):
            s = float(sub[:, dim].sum())
            want[(int(lab), dim + 1)] = (
                len(sub), int(s), s / float(len(sub))
            )
    for np_ in (1, 5):
        got = class_centroids(
            ray.data.from_arrow(tbl).repartition(np_)
        ).to_pandas()
        got_map = {
            (int(r.label), int(r.dim)): (r.n_obs, r.sum_q, r.mean_q)
            for r in got.itertuples()
        }
        assert got_map == want


def test_top_paths(ray_session):
    """Session paths vs the DuckDB string_agg mirror on a random
    gap-heavy table: single-event sessions, cross-block users, tie
    ordering by (ts, event_id)."""
    import duckdb

    import ray.data

    from console_log_parser_ray.stages.events import top_paths

    rng = np.random.default_rng(47)
    n = 1200
    tbl = pa.table(
        {
            "user_id": pa.array(rng.integers(0, 30, n), pa.int64()),
            "ts": pa.array(
                (rng.integers(0, 3000, n) * 17).astype(np.int64),
                pa.timestamp("us"),
            ),
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "event_type": pa.array(rng.choice(["a", "b", "c"], n)),
        }
    )
    con = duckdb.connect()
    con.register("events", tbl)
    gap = 5000
    want = con.execute(
        "WITH s AS (SELECT user_id, event_type, ts, event_id, "
        "CASE WHEN lag(epoch_us(ts)) OVER w IS NULL OR epoch_us(ts) "
        f"- lag(epoch_us(ts)) OVER w > {gap} THEN 1 ELSE 0 END AS ns "
        "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, "
        "event_id)), "
        "s2 AS (SELECT *, SUM(ns) OVER (PARTITION BY user_id ORDER "
        "BY ts, event_id ROWS UNBOUNDED PRECEDING) AS sid FROM s), "
        "p AS (SELECT user_id, sid, string_agg(event_type, '>' "
        "ORDER BY ts, event_id) AS path FROM s2 GROUP BY 1, 2) "
        "SELECT path, CAST(count(*) AS BIGINT) FROM p GROUP BY 1 "
        "ORDER BY 2 DESC, 1 LIMIT 15"
    ).fetchall()
    for np_ in (1, 4):
        got = [
            (r["path"], r["n_sessions"])
            for r in top_paths(
                ray.data.from_arrow(tbl).repartition(np_),
                gap_us=gap,
                k=15,
                n_buckets=4,
            ).take_all()
        ]
        assert got == [tuple(w) for w in want]


def test_split_assign_deterministic_and_stable(ray_session):
    ray = ray_session
    import hashlib
    import math

    import numpy as np
    import pyarrow as pa

    from console_log_parser_ray.stages.export import split_assign

    ids = np.arange(1, 2001, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    got = {
        r["doc_id"]: (r["u"], r["split"])
        for r in split_assign(ds).take_all()
    }
    assert len(got) == 2000
    for i in (1, 500, 1999):
        u = int(
            hashlib.md5(str(i).encode()).hexdigest()[:13], 16
        ) / float(1 << 52)
        want = "train" if u < 0.9 else ("val" if u < 0.95 else "test")
        assert got[i] == (u, want)
    # fractions land near the cuts
    from collections import Counter

    c = Counter(v[1] for v in got.values())
    assert abs(c["train"] / 2000 - 0.9) < 0.03
    # growing the corpus NEVER reassigns an existing row
    ds2 = ray.data.from_arrow(
        pa.table(
            {"doc_id": pa.array(np.arange(1, 4001, dtype=np.int64))}
        )
    )
    got2 = {
        r["doc_id"]: (r["u"], r["split"])
        for r in split_assign(ds2).take_all()
    }
    assert all(got2[i] == got[i] for i in ids)
    # custom labels/cuts validate
    import pytest as _pytest

    with _pytest.raises(ValueError):
        split_assign(ds, labels=("a", "b"), cuts=(0.1, 0.2))


def test_vocab_overlap_reference_and_partitioning(ray_session):
    ray = ray_session
    import numpy as np
    import pyarrow as pa

    from console_log_parser_ray.stages.textan import vocab_overlap

    rng = np.random.default_rng(41)
    vocab = ["v%d" % i for i in range(40)]
    ranges = {"a": (0, 20), "b": (10, 30), "c": (30, 40), "z": (0, 0)}
    rows = []
    for cls, (lo, hi) in ranges.items():
        for _ in range(40):
            take = (
                rng.choice(vocab[lo:hi], rng.integers(1, 12))
                if hi > lo
                else []
            )
            rows.append((cls, " ".join(take)))
    ds = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array([r[0] for r in rows], pa.string()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )
    got = {
        (r["src_a"], r["src_b"]): (r["n_common"], r["n_union"])
        for r in vocab_overlap(ds, n_buckets=5).take_all()
    }
    # python set reference
    vs = {}
    for cls, text in rows:
        vs.setdefault(cls, set()).update(text.split())
    vs = {c: v for c, v in vs.items() if v}
    want = {}
    for a in vs:
        for b in vs:
            if a < b and vs[a] & vs[b]:
                want[(a, b)] = (
                    len(vs[a] & vs[b]),
                    len(vs[a] | vs[b]),
                )
    assert got == want
    assert ("a", "c") not in got  # disjoint ranges share nothing
    assert not any("z" in p for p in got)  # empty class vanished
    got2 = {
        (r["src_a"], r["src_b"]): (r["n_common"], r["n_union"])
        for r in vocab_overlap(
            ds.repartition(9), n_buckets=11
        ).take_all()
    }
    assert got2 == got


def test_group_entropy_reference_and_partitioning(ray_session):
    ray = ray_session
    import math

    import numpy as np
    import pyarrow as pa

    from console_log_parser_ray.stages.events import group_entropy

    rng = np.random.default_rng(47)
    keys = rng.integers(1, 60, 3000).astype(np.int64)
    vals = rng.choice(["a", "b", "c", "d"], 3000)
    # one single-type user: entropy exactly 0
    keys = np.concatenate([keys, np.full(20, 999, np.int64)])
    vals = np.concatenate([vals, np.full(20, "only")])
    ds = ray.data.from_arrow(
        pa.table(
            {
                "user_id": pa.array(keys),
                "event_type": pa.array(vals),
            }
        )
    )
    got = {
        r["user_id"]: (r["n_events"], r["entropy_q"])
        for r in group_entropy(ds, n_buckets=7).take_all()
    }
    from collections import Counter, defaultdict

    per = defaultdict(Counter)
    for k, v in zip(keys.tolist(), vals.tolist()):
        per[k][v] += 1
    want = {}
    for k, cnt in per.items():
        n = sum(cnt.values())
        q = sum(
            c
            * math.floor(
                (math.log(float(n)) - math.log(float(c))) * 1_000_000
            )
            for c in cnt.values()
        )
        want[k] = (n, q)
    assert got == want
    assert got[999] == (20, 0)
    got2 = {
        r["user_id"]: (r["n_events"], r["entropy_q"])
        for r in group_entropy(
            ds.repartition(11), n_buckets=13
        ).take_all()
    }
    assert got2 == got


def test_skyline_2d_bruteforce_and_partitioning(ray_session):
    ray = ray_session
    import numpy as np
    import pyarrow as pa

    from console_log_parser_ray.stages.relational import skyline_2d

    rng = np.random.default_rng(53)
    n = 4000
    x = rng.integers(0, 40, n).astype(np.int64)  # maximize
    y = rng.integers(0, 40, n).astype(np.int64)  # minimize
    # planted exact-duplicate frontier points and same-x ties
    x[:3] = 39
    y[:3] = 0
    tbl = pa.table(
        {
            "rid": pa.array(np.arange(n, dtype=np.int64)),
            "x": pa.array(x),
            "y": pa.array(y),
        }
    )
    got = {
        r["rid"]
        for r in skyline_2d(
            ray.data.from_arrow(tbl).repartition(9), "x", "y"
        ).take_all()
    }
    want = set()
    for i in range(n):
        dominated = bool(
            np.any(
                (x >= x[i])
                & (y <= y[i])
                & ((x > x[i]) | (y < y[i]))
            )
        )
        if not dominated:
            want.add(i)
    assert got == want
    assert {0, 1, 2} <= got
    got2 = {
        r["rid"]
        for r in skyline_2d(
            ray.data.from_arrow(tbl).repartition(2), "x", "y"
        ).take_all()
    }
    assert got2 == got
    # guard trips on an anti-chain wider than the cap
    import pytest as _pytest

    anti = pa.table(
        {
            "x": pa.array(np.arange(100, dtype=np.int64)),
            "y": pa.array(np.arange(100, dtype=np.int64)),
        }
    )
    with _pytest.raises(ValueError, match="frontier candidates"):
        skyline_2d(
            ray.data.from_arrow(anti), "x", "y", max_candidates=10
        ).take_all()


def test_activity_streaks_reference_and_partitioning(ray_session):
    ray = ray_session
    import numpy as np
    import pyarrow as pa

    from console_log_parser_ray.stages.events import activity_streaks

    rng = np.random.default_rng(59)
    day_us = 86_400_000_000
    users = rng.integers(0, 40, 5000).astype(np.int64)
    days = rng.integers(0, 25, 5000).astype(np.int64)
    # in-day jitter must not matter
    ts = days * day_us + rng.integers(0, day_us, 5000)
    # a single-event user and a perfectly contiguous user
    users = np.concatenate([users, [777], np.full(10, 888)])
    ts = np.concatenate(
        [ts, [3 * day_us + 5], (np.arange(10) + 2) * day_us + 1]
    )
    ds = ray.data.from_arrow(
        pa.table(
            {
                "user_id": pa.array(users),
                "ts": pa.array(ts, pa.int64()),
            }
        )
    ).repartition(7)
    got = {
        r["user_id"]: (
            r["n_active_days"],
            r["n_streaks"],
            r["longest_streak"],
        )
        for r in activity_streaks(ds, n_buckets=5).take_all()
    }
    from collections import defaultdict

    per = defaultdict(set)
    for u, t in zip(users.tolist(), ts.tolist()):
        per[u].add(t // day_us)
    want = {}
    for u, dset in per.items():
        ds_sorted = sorted(dset)
        runs = []
        cur = 1
        for a, b in zip(ds_sorted, ds_sorted[1:]):
            if b == a + 1:
                cur += 1
            else:
                runs.append(cur)
                cur = 1
        runs.append(cur)
        want[u] = (len(dset), len(runs), max(runs))
    assert got == want
    assert got[777] == (1, 1, 1)
    assert got[888] == (10, 1, 10)


def test_corr_matrix_exact_moments(ray_session):
    ray = ray_session
    import math

    import numpy as np
    import pyarrow as pa

    from console_log_parser_ray.stages.relational import corr_matrix

    rng = np.random.default_rng(61)
    n = 9000
    a = rng.normal(10, 3, n)
    b = 2.0 * a + rng.normal(0, 1, n)  # strongly correlated
    c = rng.uniform(0, 5, n)  # independent
    tbl = pa.table(
        {
            "a": pa.array(a),
            "b": pa.array(b),
            "c": pa.array(c),
        }
    )
    out = corr_matrix(
        ray.data.from_arrow(tbl).repartition(6),
        ["a", "b", "c"],
        [100, 100, 100],
    )
    got = {
        (r["col_x"], r["col_y"]): (r["n"], r["corr"])
        for r in out.to_pylist()
    }
    qa = np.floor(a * 100).astype(object)
    qb = np.floor(b * 100).astype(object)
    qc = np.floor(c * 100).astype(object)

    def ref(x, y):
        nn = float(n)
        sx, sy = float(sum(x)), float(sum(y))
        sxx = float(sum(v * v for v in x))
        syy = float(sum(v * v for v in y))
        sxy = float(sum(u * v for u, v in zip(x, y)))
        return (nn * sxy - sx * sy) / (
            math.sqrt(nn * sxx - sx * sx)
            * math.sqrt(nn * syy - sy * sy)
        )

    assert got[("a", "b")] == (n, ref(qa, qb))
    assert got[("a", "c")] == (n, ref(qa, qc))
    assert got[("b", "c")] == (n, ref(qb, qc))
    assert got[("a", "b")][1] > 0.95
    assert abs(got[("a", "c")][1]) < 0.1


def test_setsim_join_bruteforce(ray_session):
    ray = ray_session
    import numpy as np
    import pyarrow as pa

    from console_log_parser_ray.stages.dedup import _shingles, setsim_join

    rng = np.random.default_rng(67)
    vocab = np.array([f"w{i}" for i in range(300)])
    texts = []
    for i in range(120):
        lo, hi = (40, 70) if i < 40 else (8, 40)
        toks = list(vocab[rng.integers(0, 300, rng.integers(lo, hi))])
        texts.append(" ".join(toks))
    # planted near-copies: drop one middle token
    base_n = len(texts)
    for i in range(40):
        toks = texts[i].split()
        p = len(toks) // 2
        texts.append(" ".join(toks[:p] + toks[p + 1 :]))
    ids = list(range(base_n)) + [1000 + i for i in range(40)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    ).repartition(5)
    for thr, caps in (
        (0.6, {}),
        (0.85, {}),
        # force the corpus-scale join path (DF groupby+join, grouped
        # text attach) so both sides of the size-adaptive plan are
        # pinned to the same brute-force oracle
        (0.85, {"max_broadcast_shingles": 0, "broadcast_pair_limit": 0}),
        # mixed plan: broadcast DF + in-block prefix, but candidate
        # texts over byte budget -> grouped-join verify
        (0.85, {"max_broadcast_text_bytes": 0}),
    ):
        got = {
            (r["doc_a"], r["doc_b"]): (
                r["n_inter"],
                r["n_union"],
                r["jaccard"],
            )
            for r in setsim_join(
                ds, thr, n_df_buckets=7, n_pair_buckets=11, **caps
            ).take_all()
        }
        sets = {i: _shingles(t, 3) for i, t in zip(ids, texts)}
        want = {}
        for ii, ai in enumerate(ids):
            for bj in ids[ii + 1 :]:
                sa, sb = sets[ai], sets[bj]
                inter = len(sa & sb)
                union = len(sa) + len(sb) - inter
                if union and inter / union >= thr:
                    want[(ai, bj)] = (inter, union, inter / union)
        assert got == want
        assert len(want) >= 30  # planted pairs qualify


def test_nearest_event_join_bruteforce(ray_session):
    ray = ray_session
    import numpy as np
    import pyarrow as pa

    from console_log_parser_ray.stages.events import nearest_event_join

    rng = np.random.default_rng(71)
    n = 6000
    users = rng.integers(0, 50, n).astype(np.int64)
    ts = rng.integers(0, 10_000, n).astype(np.int64)  # heavy ties
    kinds = rng.choice(["purchase", "click", "view"], n)
    ids = np.arange(n, dtype=np.int64)
    # a user with anchors but no candidates
    users = np.concatenate([users, [900, 900]])
    ts = np.concatenate([ts, [5, 6]])
    kinds = np.concatenate([kinds, ["purchase", "view"]])
    ids = np.concatenate([ids, [10_000, 10_001]])
    ds = ray.data.from_arrow(
        pa.table(
            {
                "event_id": pa.array(ids),
                "user_id": pa.array(users),
                "event_type": pa.array(kinds),
                "ts": pa.array(ts, pa.int64()),
            }
        )
    ).repartition(7)
    got = {
        r["anchor_id"]: (r["near_id"], r["gap_us"])
        for r in nearest_event_join(ds, n_buckets=5).take_all()
    }
    want = {}
    for i in range(len(ids)):
        if kinds[i] != "purchase":
            continue
        best = None
        for j in range(len(ids)):
            if kinds[j] != "click" or users[j] != users[i]:
                continue
            key = (abs(int(ts[j]) - int(ts[i])), int(ts[j]), int(ids[j]))
            if best is None or key < best[0]:
                best = (key, int(ids[j]))
        if best is not None:
            want[int(ids[i])] = (best[1], best[0][0])
    assert got == want
    assert 10_000 not in got


def test_mutual_info_reference(ray_session):
    ray = ray_session
    import math

    import numpy as np
    import pyarrow as pa

    from console_log_parser_ray.stages.textan import mutual_info

    rng = np.random.default_rng(73)
    # correlated categoricals: y leans on x
    x = rng.choice(["en", "de", "fr"], 5000, p=[0.5, 0.3, 0.2])
    y = np.where(
        rng.random(5000) < 0.7,
        np.char.add("s_", x),
        rng.choice(["s_en", "s_de", "s_fr"], 5000),
    )
    ds = ray.data.from_arrow(
        pa.table(
            {
                "lang": pa.array(list(x), pa.string()),
                "source": pa.array(list(y), pa.string()),
            }
        )
    ).repartition(6)
    out = mutual_info(ds).to_pylist()
    from collections import Counter

    cells = Counter(zip(x.tolist(), y.tolist()))
    cx = Counter(x.tolist())
    cy = Counter(y.tolist())
    n = 5000
    want = {}
    for (a, b), c in cells.items():
        want[(a, b)] = (
            c,
            cx[a],
            cy[b],
            int(
                math.floor(
                    (
                        math.log(float(c))
                        + math.log(float(n))
                        - math.log(float(cx[a]))
                        - math.log(float(cy[b]))
                    )
                    * 1e6
                )
            ),
        )
    got = {
        (r["lang"], r["source"]): (
            r["c_xy"],
            r["c_x"],
            r["c_y"],
            r["pmi_q"],
        )
        for r in out
    }
    assert got == want
    assert all(r["n"] == n for r in out)
    # matched cells (en, s_en) must have positive PMI
    assert got[("en", "s_en")][3] > 0


def test_lookup_join_differential_vs_hash_join(ray_session):
    """Size-adaptive broadcast lookup join: every (how, plan) combo
    equals the co-partitioned hash_join and a brute-force local join
    on a corpus with duplicate right keys AND null keys on both
    sides; the above-cap fallback is forced with max_broadcast_rows=0."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.relational import (
        hash_join,
        lookup_join,
    )

    rng = np.random.default_rng(41)
    lk = rng.integers(0, 40, 500).astype(object)
    lk[rng.choice(500, 20, replace=False)] = None  # null left keys
    left = pa.table(
        {
            "k": pa.array(list(lk), pa.int64()),
            "lv": pa.array(np.arange(500, dtype=np.int64)),
        }
    )
    # duplicate right keys (multi-match) + null right keys
    rk = list(rng.integers(10, 55, 70).astype(object))
    rk[3] = None
    rk[40] = None
    right = pa.table(
        {
            "rk": pa.array(rk, pa.int64()),
            "rv": pa.array(np.arange(70, dtype=np.int64) * 7),
        }
    )

    rrows = [
        (r["rk"], r["rv"]) for r in right.to_pylist() if r["rk"] is not None
    ]
    want = {"inner": [], "left": [], "semi": [], "anti": []}
    for r in left.to_pylist():
        matches = [rv for k2, rv in rrows if k2 == r["k"]] if (
            r["k"] is not None
        ) else []
        for rv in matches:
            want["inner"].append((r["k"], r["lv"], rv))
            want["left"].append((r["k"], r["lv"], rv))
        if matches:
            want["semi"].append((r["k"], r["lv"]))
        else:
            want["left"].append((r["k"], r["lv"], None))
            want["anti"].append((r["k"], r["lv"]))
    for v in want.values():
        v.sort(key=lambda t: tuple((x is None, x) for x in t))

    lds = ray.data.from_arrow(left).repartition(6)
    rds = ray.data.from_arrow(right).repartition(3)
    key = lambda t: tuple((x is None, x) for x in t)
    for how in ("inner", "left", "semi", "anti"):
        for caps in (
            {},  # broadcast plan
            {"max_broadcast_rows": 0},  # row-cap fallback
            {"max_broadcast_bytes": 0},  # byte-cap fallback
        ):
            res = lookup_join(
                lds, rds, on="k", right_on="rk", how=how,
                n_buckets=7, **caps,
            ).take_all()
            if how in ("semi", "anti"):
                got = sorted(((r["k"], r["lv"]) for r in res), key=key)
            else:
                got = sorted(
                    ((r["k"], r["lv"], r["rv"]) for r in res), key=key
                )
            assert got == want[how], (how, caps)
        hj = hash_join(
            lds, rds, on="k", right_on="rk", how=how, n_buckets=7
        ).take_all()
        if how in ("semi", "anti"):
            gh = sorted(((r["k"], r["lv"]) for r in hj), key=key)
        else:
            gh = sorted(((r["k"], r["lv"], r["rv"]) for r in hj), key=key)
        assert gh == want[how], ("hash_join", how)


def test_lookup_join_no_payload_and_collision(ray_session):
    import pyarrow as pa
    import pytest

    import ray.data

    from console_log_parser_ray.stages.relational import lookup_join

    left = pa.table(
        {"k": pa.array([1, 2, 3], pa.int64()),
         "lv": pa.array([10, 20, 30], pa.int64())}
    )
    # right side with ONLY the key column: semi/anti still work
    right = pa.table({"rk": pa.array([2, 2, 9], pa.int64())})
    lds = ray.data.from_arrow(left)
    rds = ray.data.from_arrow(right)
    semi = lookup_join(lds, rds, on="k", right_on="rk", how="semi")
    assert sorted(r["k"] for r in semi.take_all()) == [2]
    # inner with no payload keeps left columns, multiplicity 2
    inner = lookup_join(lds, rds, on="k", right_on="rk", how="inner")
    assert sorted(r["lv"] for r in inner.take_all()) == [20, 20]
    bad = pa.table(
        {"rk": pa.array([1], pa.int64()),
         "lv": pa.array([99], pa.int64())}
    )
    with pytest.raises(ValueError, match="collision"):
        lookup_join(lds, ray.data.from_arrow(bad), on="k", right_on="rk")


def test_funnel_steps_bruteforce(ray_session):
    """k-step funnel vs a per-user python walk on a random tie-heavy
    stream; 3 and 4 steps, including users who stall at every depth."""
    import numpy as np
    import pyarrow as pa
    import pytest

    import ray.data

    from console_log_parser_ray.stages.events import funnel_steps

    rng = np.random.default_rng(53)
    n = 4000
    types = ["a", "b", "c", "d", "x"]
    tbl = pa.table(
        {
            "user_id": pa.array(
                rng.integers(0, 120, n).astype(np.int64)
            ),
            "ts": pa.array(
                rng.integers(0, 500, n).astype(np.int64)  # heavy ties
            ),
            "event_type": pa.array(rng.choice(types, n)),
        }
    )
    rows = list(
        zip(
            tbl.column("user_id").to_pylist(),
            tbl.column("ts").to_pylist(),
            tbl.column("event_type").to_pylist(),
        )
    )

    def brute(steps, window):
        out = {}
        users = {u for u, _, t in rows if t == steps[0]}
        for u in users:
            mine = [(ts, t) for uu, ts, t in rows if uu == u]
            cur = min(ts for ts, t in mine if t == steps[0])
            cols = [cur]
            for s in steps[1:]:
                nxt = [
                    ts for ts, t in mine if t == s and ts >= cols[-1]
                    if cols[-1] is not None
                ] if cols[-1] is not None else []
                cols.append(min(nxt) if nxt else None)
            conv = cols[-1] is not None and cols[-1] - cols[0] <= window
            out[u] = (tuple(cols), conv)
        return out

    ds = ray.data.from_arrow(tbl).repartition(6)
    for steps, window in ([["a", "b", "c"], 200], [["a", "b", "c", "d"], 450]):
        got = {}
        for r in funnel_steps(
            ds, steps, window_us=window, n_buckets=7
        ).take_all():
            got[r["user_id"]] = (
                tuple(r[f"s{i + 1}_us"] for i in range(len(steps))),
                r["converted"],
            )
        assert got == brute(steps, window)

    with pytest.raises(ValueError, match="distinct"):
        funnel_steps(ds, ["a", "a", "b"])
    with pytest.raises(ValueError, match="at least 2"):
        funnel_steps(ds, ["a"])


def test_grok_extract(ray_session):
    """Named-group regex -> typed columns: casts, null text, unmatched
    rows (null groups vs dropped), first-match convention."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import grok_extract

    tbl = pa.table(
        {
            "rid": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "GET /a/b 200 17ms",
                    "POST /c 500 3ms and GET /z 200 1ms",  # first match
                    None,
                    "no match here",
                ],
                pa.string(),
            ),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(2)
    pat = r"(?P<verb>GET|POST) (?P<path>\S+) (?P<code>\d+) (?P<ms>\d+)ms"
    rows = {
        r["rid"]: (r["verb"], r["path"], r["code"], r["ms"])
        for r in grok_extract(
            ds, pat, col="text", keep_cols=("rid",),
            casts={"code": pa.int64(), "ms": pa.int64()},
        ).take_all()
    }
    assert rows[1] == ("GET", "/a/b", 200, 17)
    assert rows[2] == ("POST", "/c", 500, 3)  # first match only
    assert rows[3] == (None, None, None, None)
    assert rows[4] == (None, None, None, None)
    kept = grok_extract(
        ds, pat, col="text", keep_cols=("rid",), drop_unmatched=True
    ).take_all()
    assert sorted(r["rid"] for r in kept) == [1, 2]


def test_grok_dispatch(ray_session):
    """Ordered fallback patterns: first match wins, shared group
    names merge across dialects, unmatched rows stay null-tagged."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import grok_dispatch

    tbl = pa.table(
        {
            "rid": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(
                [
                    "GET /a 200",          # matches both; p1 wins
                    "POST /b",             # only p2
                    "weird",               # neither
                    None,                  # null text
                    "GET /c 404",          # p1
                ],
                pa.string(),
            ),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(2)
    out = {
        r["rid"]: (r["grok_tag"], r["verb"], r["path"], r["code"])
        for r in grok_dispatch(
            ds,
            [
                ("with_code", r"(?P<verb>\w+) (?P<path>\S+) (?P<code>\d+)"),
                ("bare", r"(?P<verb>\w+) (?P<path>\S+)"),
            ],
            col="text",
            keep_cols=("rid",),
            casts={"code": pa.int64()},
        ).take_all()
    }
    assert out[1] == ("with_code", "GET", "/a", 200)
    assert out[2] == ("bare", "POST", "/b", None)
    assert out[3] == (None, None, None, None)
    assert out[4] == (None, None, None, None)
    assert out[5] == ("with_code", "GET", "/c", 404)


def test_log_templates_differential(ray_session):
    """Drain-lite template mining == DuckDB regexp_replace chain +
    GROUP BY on a random multi-line log corpus (hex ids, UUIDs,
    numbers, continuation noise, empty and null docs)."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import log_templates

    rng = np.random.default_rng(41)
    shapes = [
        "ERROR conn {a} refused from 10.0.{a}.{b}",
        "INFO user u{a} logged in sess 0x{a:x}",
        "WARN disk {a}% full on /dev/sd{b}",
        "TRACE req {uuid} took {b} ms",
    ]
    uuid = "deadbeef-0000-4100-8200-0123456789ab"
    docs = []
    for _ in range(150):
        lines = []
        for _ in range(rng.integers(0, 8)):
            s = shapes[rng.integers(0, len(shapes))]
            lines.append(
                s.format(
                    a=int(rng.integers(0, 5000)),
                    b=int(rng.integers(0, 5000)),
                    uuid=uuid,
                )
            )
        docs.append("\n".join(lines))
    docs[0], docs[1] = "", None
    tbl = pa.table({"text": pa.array(docs, pa.string())})
    mine = log_templates(
        ray.data.from_arrow(tbl).repartition(7), k=10
    ).to_pandas()
    con = duckdb.connect()
    con.register("documents", tbl)
    uu = (
        "\\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}"
        "-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\\b"
    )
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
        "ORDER BY n DESC, template LIMIT 10"
    ).fetchdf()
    assert mine["template"].tolist() == ref["template"].tolist()
    assert mine["n"].tolist() == ref["n"].tolist()
    assert mine["example"].tolist() == ref["example"].tolist()
    # masks actually collapsed the variable fields
    assert any("<N>" in t for t in mine["template"])
    assert any("<UUID>" in t for t in mine["template"])
    assert any("<HEX>" in t for t in mine["template"])


def test_stitch_multiline_pinned(ray_session):
    """Continuation lines (leading space/tab) attach to the preceding
    record; a continuation-first document yields record 0; empty and
    null docs yield one empty single-line record."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import stitch_multiline

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "a\n  cont1\n\tcont2\nb\nc\n d",
                    "  orphan\nx",
                    "",
                    None,
                ],
                pa.string(),
            ),
        }
    )
    rows = {
        (r["doc_id"], r["rec_idx"]): (r["rec_text"], r["n_lines"])
        for r in stitch_multiline(
            ray.data.from_arrow(tbl).repartition(2)
        ).take_all()
    }
    assert rows[(1, 1)] == ("a\n  cont1\n\tcont2", 3)
    assert rows[(1, 2)] == ("b", 1)
    assert rows[(1, 3)] == ("c\n d", 2)
    assert rows[(2, 0)] == ("  orphan", 1)
    assert rows[(2, 1)] == ("x", 1)
    assert rows[(3, 1)] == ("", 1)
    assert rows[(4, 1)] == ("", 1)
    assert len(rows) == 7


def test_stitch_multiline_differential(ray_session):
    """stitch_multiline == DuckDB window-cumsum + string_agg on a
    random corpus mixing starts, continuations and blank lines."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import stitch_multiline

    rng = np.random.default_rng(43)
    pool = ["start %d", "  cont %d", "\tcont %d", "", "  ", "mid %d"]
    docs = []
    for _ in range(120):
        lines = [
            pool[rng.integers(0, len(pool))] % rng.integers(0, 99)
            if "%d" in pool[rng.integers(0, len(pool))]
            else pool[rng.integers(0, len(pool))]
            for _ in range(rng.integers(0, 9))
        ]
        docs.append("\n".join(lines))
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(120, dtype=np.int64)),
            "text": pa.array(docs, pa.string()),
        }
    )
    mine = (
        stitch_multiline(ray.data.from_arrow(tbl).repartition(7))
        .to_pandas()
        .sort_values(["doc_id", "rec_idx"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    ref = (
        con.execute(
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
        )
        .fetchdf()
        .sort_values(["doc_id", "rec_idx"])
        .reset_index(drop=True)
    )
    assert mine["doc_id"].tolist() == ref["doc_id"].tolist()
    assert mine["rec_idx"].tolist() == ref["rec_idx"].tolist()
    assert mine["rec_text"].tolist() == ref["rec_text"].tolist()
    assert mine["n_lines"].tolist() == ref["n_lines"].tolist()


def test_error_bursts_differential(ray_session):
    """error_bursts == DuckDB gaps-and-islands over hot tumbling
    windows, on a random stream with planted dense stretches."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import error_bursts

    rng = np.random.default_rng(47)
    # sparse background + planted dense stretches around two hours
    ts = rng.integers(0, 40, 800).astype(np.int64) * 100_000_000
    dense = np.concatenate(
        [
            rng.integers(500, 900, 300),
            rng.integers(2000, 2300, 250),
        ]
    ).astype(np.int64) * 1_000_000
    ts = np.concatenate([ts, dense])
    types = rng.choice(["error", "click"], len(ts), p=[0.7, 0.3])
    tbl = pa.table(
        {
            "ts": pa.array(ts, pa.timestamp("us")),
            "event_type": pa.array(types),
        }
    )
    win, thr = 60 * 1_000_000, 4
    mine = (
        error_bursts(
            ray.data.from_arrow(tbl).repartition(7),
            window_us=win,
            threshold=thr,
        )
        .to_pandas()
        .sort_values("burst_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", tbl)
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
    assert len(mine) >= 2  # the planted stretches actually burst
    for c in (
        "burst_id w_start w_end n_windows total_events peak_events"
    ).split():
        assert mine[c].tolist() == ref[c].tolist(), c


def test_triangle_counts_differential(ray_session):
    """cooccur_pair_edges + triangle_counts == DuckDB distinct-pair
    projection + 3-way self-join on a random bipartite membership
    table (dense groups guarantee triangles)."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.graph import (
        cooccur_pair_edges,
        triangle_counts,
    )

    rng = np.random.default_rng(11)
    n = 1500
    tbl = pa.table(
        {
            "grp": pa.array(rng.integers(0, 200, n).astype(np.int64)),
            "item": pa.array(rng.integers(0, 120, n).astype(np.int64)),
        }
    )
    con = duckdb.connect()
    con.register("m", tbl)
    edges = cooccur_pair_edges(
        ray.data.from_arrow(tbl).repartition(7),
        "grp",
        "item",
        n_buckets=16,
    )
    mine_e = sorted((r["a"], r["b"]) for r in edges.take_all())
    ref_e = sorted(
        con.execute(
            "SELECT DISTINCT m1.item AS a, m2.item AS b FROM m m1 "
            "JOIN m m2 ON m1.grp = m2.grp AND m1.item < m2.item"
        ).fetchall()
    )
    assert mine_e == ref_e
    mine_t = {
        r["node"]: r["n_tri"]
        for r in triangle_counts(edges, n_buckets=16).take_all()
    }
    # forced semi-join fallback (above-cap path) must agree
    mine_t2 = {
        r["node"]: r["n_tri"]
        for r in triangle_counts(
            edges, n_buckets=16, max_broadcast_edges=0
        ).take_all()
    }
    ref_t = dict(
        con.execute(
            "WITH e AS (SELECT DISTINCT m1.item AS a, m2.item AS b "
            "  FROM m m1 JOIN m m2 ON m1.grp = m2.grp "
            "  AND m1.item < m2.item), "
            "tri AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z "
            "  FROM e e1 JOIN e e2 ON e1.b = e2.a "
            "  JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b) "
            "SELECT node, CAST(count(*) AS BIGINT) FROM ("
            "  SELECT x AS node FROM tri UNION ALL SELECT y FROM tri "
            "  UNION ALL SELECT z FROM tri) GROUP BY node"
        ).fetchall()
    )
    assert mine_t == ref_t
    assert mine_t2 == ref_t
    assert sum(mine_t.values()) % 3 == 0 and sum(mine_t.values()) > 0


def test_decay_score_differential(ray_session):
    """decay_score == DuckDB integer cents x power-of-two weights on a
    random stream straddling the reference time (future events clamp
    to age 0, ancient ones to max_halvings)."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import decay_score

    rng = np.random.default_rng(53)
    n = 3000
    t_ref = 50 * 86400 * 1_000_000
    ts = rng.integers(
        -10 * 86400_000_000, 120 * 86400_000_000, n
    ).astype(np.int64)
    tbl = pa.table(
        {
            "user_id": pa.array(
                rng.integers(1, 60, n).astype(np.int64)
            ),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(
                np.floor(rng.uniform(-20, 500, n) * 100) / 100.0,
                pa.float64(),
            ),
        }
    )
    mine = (
        decay_score(
            ray.data.from_arrow(tbl).repartition(7),
            t_ref_us=t_ref,
            max_halvings=20,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", tbl)
    ref = (
        con.execute(
            "WITH q AS (SELECT user_id, "
            "CAST(floor(value * 100) AS BIGINT) * "
            "(CAST(1 AS BIGINT) << CAST(20 - least(greatest("
            f"({t_ref} - epoch_us(ts)) // 86400000000, 0), 20) "
            "AS INTEGER)) AS contrib FROM events) "
            "SELECT user_id, CAST(count(*) AS BIGINT) AS n_events, "
            "CAST(sum(contrib) AS BIGINT) AS decayed_q, "
            "CAST(sum(contrib) AS BIGINT) / (100.0 * "
            "(CAST(1 AS BIGINT) << 20)) AS decay_score "
            "FROM q GROUP BY user_id"
        )
        .fetchdf()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert mine["user_id"].tolist() == ref["user_id"].tolist()
    assert mine["n_events"].tolist() == ref["n_events"].tolist()
    assert mine["decayed_q"].tolist() == ref["decayed_q"].tolist()
    # bit-exact: one identical IEEE division on both sides
    a = mine["decay_score"].to_numpy().view(np.int64)
    b = ref["decay_score"].to_numpy().view(np.int64)
    assert (a == b).all()


def test_band_join_differential(ray_session):
    """band_join == DuckDB banded self-join on random values with
    negatives (floor-division bands), ties, and both antisym and
    two-table modes."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.relational import band_join

    rng = np.random.default_rng(59)
    n = 800
    vals = rng.integers(-3000, 3000, n).astype(np.int64)
    tbl = pa.table(
        {
            "id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "v": pa.array(vals, pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    eps = 37
    dds = lambda: ray.data.from_arrow(tbl).repartition(7)  # noqa: E731
    mine = sorted(
        (r["id_a"], r["id_b"], r["val_a"], r["val_b"])
        for r in band_join(
            dds(), dds(), "v", "id", "v", "id",
            eps_q=eps, n_buckets=16, antisym=True,
        ).take_all()
    )
    ref = sorted(
        con.execute(
            "SELECT a.id, b.id, a.v, b.v FROM t a JOIN t b "
            f"ON abs(a.v - b.v) <= {eps} AND a.id < b.id"
        ).fetchall()
    )
    assert mine == ref and len(ref) > 100

    # two-table mode (no antisym): every qualifying ordered pair once
    small = pa.table(
        {
            "id": pa.array([901, 902, 903], pa.int64()),
            "v": pa.array([-2995, 0, 2999], pa.int64()),
        }
    )
    con.register("s", small)
    mine = sorted(
        (r["id_a"], r["id_b"])
        for r in band_join(
            ray.data.from_arrow(small),
            dds(),
            "v", "id", "v", "id",
            eps_q=eps, n_buckets=16,
        ).take_all()
    )
    ref = sorted(
        con.execute(
            "SELECT s.id, t.id FROM s JOIN t "
            f"ON abs(s.v - t.v) <= {eps}"
        ).fetchall()
    )
    assert mine == ref and len(ref) > 0

    # hot-band salting: a heavily-tied distribution (every row the
    # same value) must produce identical pairs with salt > 1
    hot = pa.table(
        {
            "id": pa.array(np.arange(1, 61, dtype=np.int64)),
            "v": pa.array(np.full(60, 42, dtype=np.int64)),
        }
    )
    con.register("hot", hot)
    mine = sorted(
        (r["id_a"], r["id_b"])
        for r in band_join(
            ray.data.from_arrow(hot).repartition(4),
            ray.data.from_arrow(hot).repartition(4),
            "v", "id", "v", "id",
            eps_q=5, n_buckets=8, antisym=True, salt=4,
        ).take_all()
    )
    ref = sorted(
        con.execute(
            "SELECT a.id, b.id FROM hot a JOIN hot b "
            "ON abs(a.v - b.v) <= 5 AND a.id < b.id"
        ).fetchall()
    )
    assert mine == ref and len(ref) == 60 * 59 // 2


def test_phrase_search_overlap_and_differential(ray_session):
    """Overlapping occurrences count ('a a a' holds two 'a a' hits);
    random-corpus differential vs the DuckDB gram mirror."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import phrase_search

    pinned = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                ["a a a", "x a a y a a", "aa a", None], pa.string()
            ),
        }
    )
    got = {
        r["doc_id"]: r["n_hits"]
        for r in phrase_search(
            ray.data.from_arrow(pinned), "a a"
        ).take_all()
    }
    assert got == {1: 2, 2: 2}

    rng = np.random.default_rng(61)
    vocab = np.array(["w0", "w1", "w2", "w3", "héllo"])
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 25)))
        for _ in range(200)
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(200, dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    mine = {
        r["doc_id"]: r["n_hits"]
        for r in phrase_search(
            ray.data.from_arrow(tbl).repartition(7), "w1 w2 w1"
        ).take_all()
    }
    con = duckdb.connect()
    con.register("documents", tbl)
    ref = dict(
        con.execute(
            "WITH t AS (SELECT doc_id, regexp_extract_all("
            "coalesce(text, ''), '\\S+') AS tk FROM documents), "
            "g AS (SELECT doc_id, unnest(list_transform("
            "generate_series(1, len(tk) - 2), "
            "i -> concat_ws(' ', tk[i], tk[i+1], tk[i+2]))) AS gram "
            "FROM t WHERE len(tk) >= 3) "
            "SELECT doc_id, CAST(count(*) AS BIGINT) FROM g "
            "WHERE gram = 'w1 w2 w1' GROUP BY doc_id"
        ).fetchall()
    )
    assert mine == ref and len(ref) > 0


def test_mlm_mask_differential(ray_session):
    """mlm_mask == DuckDB md5-PRF mirror on a random corpus with
    empty, null and unicode docs; mask positions depend only on
    (doc_id, ordinal), never on content."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import mlm_mask

    rng = np.random.default_rng(67)
    vocab = np.array(["alpha", "béta", "x,y", "42", "z"])
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 15)))
        for _ in range(150)
    ]
    texts[0], texts[1] = "", None
    tbl = pa.table(
        {
            "doc_id": pa.array(
                rng.permutation(np.arange(7, 7 + 150)).astype(np.int64)
            ),
            "text": pa.array(texts, pa.string()),
        }
    )
    mine = (
        mlm_mask(ray.data.from_arrow(tbl).repartition(7), rate_pct=30)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    ref = (
        con.execute(
            "WITH t AS (SELECT doc_id, regexp_extract_all("
            "coalesce(text, ''), '\\S+') AS tk FROM documents), "
            "tok AS (SELECT doc_id, unnest(tk) AS tok, "
            "unnest(generate_series(1, len(tk))) AS j FROM t), "
            "m AS (SELECT doc_id, j, tok, "
            "('0x' || substr(md5(doc_id || ':' || j), 1, 8))::BIGINT "
            "% 100 < 30 AS is_m FROM tok), "
            "agg AS (SELECT doc_id, "
            "string_agg(CASE WHEN is_m THEN '<MASK>' ELSE tok END, "
            "' ' ORDER BY j) AS corrupted, "
            "coalesce(string_agg(CASE WHEN is_m THEN tok END, '|' "
            "ORDER BY j), '') AS labels, "
            "CAST(count(*) FILTER (WHERE is_m) AS BIGINT) "
            "AS n_masked FROM m GROUP BY doc_id) "
            "SELECT d.doc_id, coalesce(a.corrupted, '') AS corrupted, "
            "coalesce(a.labels, '') AS labels, "
            "CAST(coalesce(a.n_masked, 0) AS BIGINT) AS n_masked "
            "FROM documents d LEFT JOIN agg a USING (doc_id)"
        )
        .fetchdf()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for c in ("doc_id", "corrupted", "labels", "n_masked"):
        assert mine[c].tolist() == ref[c].tolist(), c
    assert mine["n_masked"].sum() > 0


def test_gini_by_group_differential(ray_session):
    """gini_by_group == DuckDB rank-weighted integer sums on random
    tie-heavy groups; a constant-valued group has gini 0, a
    one-hot group approaches (n-1)/n."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import gini_by_group

    rng = np.random.default_rng(71)
    n = 2000
    grp = rng.choice(["a", "b", "c", "konst", "onehot"], n)
    val = np.floor(rng.uniform(0, 300, n) * 100) / 100.0
    val[grp == "konst"] = 7.25
    val[grp == "onehot"] = 0.0
    one_idx = np.flatnonzero(grp == "onehot")
    if len(one_idx):
        val[one_idx[0]] = 99.0
    tbl = pa.table(
        {
            "g": pa.array(list(grp), pa.string()),
            "value": pa.array(val, pa.float64()),
        }
    )
    mine = (
        gini_by_group(
            ray.data.from_arrow(tbl).repartition(7), "g", "value",
            n_buckets=16,
        )
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", tbl)
    ref = (
        con.execute(
            "WITH c AS (SELECT g, CAST(floor(value * 100) AS BIGINT) "
            "AS v FROM t), "
            "r AS (SELECT g, v, row_number() OVER (PARTITION BY g "
            "ORDER BY v) AS i FROM c), "
            "a AS (SELECT g, CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(v) AS BIGINT) AS s, "
            "CAST(sum(i * v) AS BIGINT) AS iv FROM r GROUP BY g) "
            "SELECT g, n, s AS sum_q, 2 * iv - (n + 1) * s "
            "AS gini_num, n * s AS gini_den, "
            "(2 * iv - (n + 1) * s) / (1.0 * n * s) AS gini FROM a"
        )
        .fetchdf()
        .sort_values("g")
        .reset_index(drop=True)
    )
    for c in ("g", "n", "sum_q", "gini_num", "gini_den"):
        assert mine[c].tolist() == ref[c].tolist(), c
    gm = dict(zip(mine["g"], mine["gini"]))
    assert gm["konst"] == 0.0
    assert gm["onehot"] > 0.9
    a = mine["gini"].to_numpy().view(np.int64)
    b = ref["gini"].to_numpy().view(np.int64)
    assert (a == b).all()


def test_interp_join_differential(ray_session):
    """interp_join == DuckDB correlated bracketing subqueries + the
    identical IEEE lerp, on a random stream with heavy timestamp ties,
    query-time exact hits, and entities with no events at all."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import interp_join

    rng = np.random.default_rng(73)
    ne, nq, nu = 2000, 600, 50
    ev = pa.table(
        {
            "user_id": pa.array(
                rng.integers(1, nu + 1, ne).astype(np.int64)
            ),
            "ts": pa.array(
                rng.integers(0, 30, ne).astype(np.int64)
                * 1_000_000_000,
                pa.timestamp("us"),
            ),
            "value": pa.array(
                np.floor(rng.uniform(-40, 40, ne) * 100) / 100.0,
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
            # users up to nu+10: some have no events -> all-null row
            "o_custkey": pa.array(
                rng.integers(1, nu + 11, nq).astype(np.int64)
            ),
            # half the probes land exactly on event stamps
            "o_orderdate": pa.array(
                np.where(
                    rng.random(nq) < 0.5,
                    rng.integers(0, 30, nq) * 1_000_000_000,
                    rng.integers(-2, 32 * 10**9, nq),
                ).astype(np.int64),
                pa.timestamp("us"),
            ),
        }
    )
    mine = (
        interp_join(
            ray.data.from_arrow(q).repartition(5),
            ray.data.from_arrow(ev).repartition(7),
            n_buckets=16,
        )
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", ev)
    con.register("orders", q)
    ref = (
        con.execute(
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
        )
        .fetchdf()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    assert mine["o_orderkey"].tolist() == ref["o_orderkey"].tolist()
    for c in ("t_prev_us", "t_next_us"):
        a, b = mine[c], ref[c]
        assert (a.isna() == b.isna()).all(), c
        assert a.dropna().astype("int64").tolist() == \
            b.dropna().astype("int64").tolist(), c
    for c in ("v_prev", "v_next", "v_interp"):
        a = mine[c].to_numpy()
        b = ref[c].to_numpy()
        assert (np.isnan(a) == np.isnan(b)).all(), c
        # bit-exact where present: identical IEEE expressions
        assert (
            a[~np.isnan(a)].view(np.int64)
            == b[~np.isnan(b)].view(np.int64)
        ).all(), c
    # corpus actually exercised the edge rules
    assert mine["v_interp"].isna().sum() > 0
    assert (mine["t_prev_us"] == mine["t_next_us"]).sum() > 0


def test_interval_concurrency_differential(ray_session):
    """interval_concurrency == DuckDB RANGE-frame boundary ranks on
    random intervals with heavy boundary ties (ends meeting starts at
    the same instant); negative times exercise floor-division
    bucketing; the bucket guard trips on a tiny max_buckets."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pytest

    import ray.data

    from console_log_parser_ray.stages.events import (
        interval_concurrency,
    )

    rng = np.random.default_rng(79)
    n = 1200
    s = (rng.integers(-50, 300, n) * 10_000_000).astype(np.int64)
    dur = (rng.integers(1, 40, n) * 10_000_000).astype(np.int64)
    tbl = pa.table(
        {
            "iid": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "s_us": pa.array(s, pa.int64()),
            "e_us": pa.array(s + dur, pa.int64()),
        }
    )
    mine = {
        r["iid"]: r["n_active"]
        for r in interval_concurrency(
            ray.data.from_arrow(tbl).repartition(7),
            id_col="iid",
            start_col="s_us",
            end_col="e_us",
            bucket_us=170_000_000,
        ).take_all()
    }
    con = duckdb.connect()
    con.register("iv", tbl)
    ref = dict(
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
    assert mine == ref
    assert max(mine.values()) > 3  # overlaps actually occurred
    with pytest.raises(ValueError, match="max_buckets"):
        interval_concurrency(
            ray.data.from_arrow(tbl),
            id_col="iid",
            start_col="s_us",
            end_col="e_us",
            bucket_us=1,
            max_buckets=10,
        )


def test_khop_reach_differential(ray_session):
    """khop_reach == DuckDB recursive-CTE min-hop BFS on a random
    sparse graph; isolated seeds stay at hop 0, empty seeds yield an
    empty table."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.graph import khop_reach

    rng = np.random.default_rng(83)
    n_nodes, n_edges = 400, 900
    a = rng.integers(0, n_nodes, n_edges)
    b = rng.integers(0, n_nodes, n_edges)
    m = a < b
    e = np.unique(np.stack([a[m], b[m]], axis=1), axis=0)
    tbl = pa.table(
        {
            "a": pa.array(e[:, 0], pa.int64()),
            "b": pa.array(e[:, 1], pa.int64()),
        }
    )
    # 999 is isolated (no edges touch it): stays a hop-0 row
    seeds = [0, 7, 13, 999]
    mine = khop_reach(
        ray.data.from_arrow(tbl).repartition(5), seeds, k=3
    )
    md = dict(
        zip(
            mine.column("node").to_pylist(),
            mine.column("hop").to_pylist(),
        )
    )
    con = duckdb.connect()
    con.register("e", tbl)
    ref = dict(
        con.execute(
            "WITH RECURSIVE sym AS (SELECT a, b FROM e "
            "UNION ALL SELECT b, a FROM e), "
            "r(node, hop) AS ("
            "SELECT unnest([0,7,13,999]::BIGINT[]), 0 "
            "UNION SELECT sym.b, r.hop + 1 FROM r "
            "JOIN sym ON sym.a = r.node WHERE r.hop < 3) "
            "SELECT node, CAST(min(hop) AS BIGINT) FROM r "
            "GROUP BY node"
        ).fetchall()
    )
    assert md == ref
    assert md[999] == 0 and max(md.values()) == 3
    empty = khop_reach(ray.data.from_arrow(tbl), [], k=3)
    assert empty.num_rows == 0


def test_melt_differential(ray_session):
    """melt == DuckDB UNION ALL unpivot on a random wide table with
    nulls (null measures melt to null values)."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.relational import melt

    rng = np.random.default_rng(89)
    n = 300
    m1 = rng.uniform(0, 10, n)
    m2 = rng.uniform(-5, 5, n)
    m1[rng.random(n) < 0.1] = np.nan
    tbl = pa.table(
        {
            "rid": pa.array(np.arange(n, dtype=np.int64)),
            "m1": pa.array(m1, pa.float64()),
            "m2": pa.array(m2, pa.float64()),
        }
    )
    mine = (
        melt(
            ray.data.from_arrow(tbl).repartition(5),
            id_cols=["rid"],
            value_cols=["m1", "m2"],
        )
        .to_pandas()
        .sort_values(["rid", "variable"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", tbl)
    ref = (
        con.execute(
            "SELECT rid, 'm1' AS variable, m1 AS value FROM t "
            "UNION ALL SELECT rid, 'm2', m2 FROM t"
        )
        .fetchdf()
        .sort_values(["rid", "variable"])
        .reset_index(drop=True)
    )
    assert mine["rid"].tolist() == ref["rid"].tolist()
    assert mine["variable"].tolist() == ref["variable"].tolist()
    a, b = mine["value"].to_numpy(), ref["value"].to_numpy()
    assert (np.isnan(a) == np.isnan(b)).all()
    assert (a[~np.isnan(a)] == b[~np.isnan(b)]).all()


def test_constraint_report_planted(ray_session):
    """constraint_report counts exactly the planted violations: nulls,
    non-positives, duplicate keys and dangling foreign keys."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.profile import constraint_report

    n = 500
    rng = np.random.default_rng(97)
    key = np.arange(1, n + 1, dtype=np.int64)
    key[10] = key[11] = 7777  # 2 extra copies of one key -> wait: two rows share 7777
    key[20] = 7777            # third copy
    price = rng.uniform(1, 100, n)
    price[[3, 4]] = 0.0
    price[5] = -2.5
    price_arr = pa.array(price, pa.float64())
    price_arr = pa.array(
        [None if i == 6 else float(price[i]) for i in range(n)],
        pa.float64(),
    )
    date = pa.array(
        [None if i in (1, 2) else 1000 + i for i in range(n)],
        pa.int64(),
    )
    cust_np = rng.integers(1, 40, n).astype(np.int64)
    cust_np[[30, 31, 32]] = 9999
    cust = pa.array(cust_np, pa.int64())
    t = pa.table(
        {"k": pa.array(key), "d": date, "p": price_arr, "c": cust}
    )
    ref_t = pa.table(
        {"rk": pa.array(np.arange(1, 40, dtype=np.int64))}
    )
    out = constraint_report(
        ray.data.from_arrow(t).repartition(7),
        not_null=("d",),
        positive=("p",),
        unique=("k",),
        fk=(("c", ray.data.from_arrow(ref_t), "rk"),),
        n_buckets=16,
    )
    got = dict(zip(out["constraint"], out["n_violations"]))
    assert got["not_null:d"] == 2
    assert got["positive:p"] == 4  # two zeros, one negative, one null
    assert got["unique:k"] == 2  # three copies of 7777 -> 2 extras
    assert got["fk:c"] == 3


def test_session_entry_exit_differential(ray_session):
    """session_entry_exit == DuckDB sessionize + bidirectional
    row_number on a tie-heavy random stream (single-event sessions
    have entry == exit)."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import session_entry_exit

    rng = np.random.default_rng(101)
    n = 2500
    ev = pa.table(
        {
            "user_id": pa.array(
                rng.integers(1, 40, n).astype(np.int64)
            ),
            "ts": pa.array(
                rng.integers(0, 6, n).astype(np.int64) * 1_700_000_000,
                pa.timestamp("us"),
            ),
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "event_type": pa.array(
                rng.choice(["a", "b", "c", "d"], n)
            ),
        }
    )
    mine = {
        (r["entry_type"], r["exit_type"]): r["n_sessions"]
        for r in session_entry_exit(
            ray.data.from_arrow(ev).repartition(7), n_buckets=16
        ).take_all()
    }
    con = duckdb.connect()
    con.register("events", ev)
    ref = {
        (a, b): c
        for a, b, c in con.execute(
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
            "max(CASE WHEN rn_a = 1 THEN event_type END) AS e1, "
            "max(CASE WHEN rn_d = 1 THEN event_type END) AS e2 "
            "FROM r GROUP BY user_id, sid) "
            "SELECT e1, e2, CAST(count(*) AS BIGINT) FROM fe "
            "GROUP BY 1, 2"
        ).fetchall()
    }
    assert mine == ref and sum(mine.values()) > 30


def test_cusum_alerts_differential(ray_session):
    """cusum_alerts == brute-force sequential CUSUM (the recurrence,
    not the closed form) AND the DuckDB window mirror, on a drifting
    random stream."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import cusum_alerts

    rng = np.random.default_rng(103)
    n, nu = 3000, 25
    uid = rng.integers(1, nu + 1, n).astype(np.int64)
    ts = rng.integers(0, 10**7, n).astype(np.int64)
    # values hover near the target, then drift up for high event ids
    vals = np.floor(rng.uniform(40, 60, n) * 100) / 100.0
    drift = rng.random(n) < 0.25
    vals[drift] = np.floor(rng.uniform(70, 90, drift.sum()) * 100) / 100.0
    ev = pa.table(
        {
            "user_id": pa.array(uid),
            "ts": pa.array(ts, pa.timestamp("us")),
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "value": pa.array(vals, pa.float64()),
        }
    )
    target, h = 5000, 20000
    mine = {
        r["event_id"]: r["cusum_q"]
        for r in cusum_alerts(
            ray.data.from_arrow(ev).repartition(7),
            target_cents=target,
            h_cents=h,
            n_buckets=16,
        ).take_all()
    }
    # brute force: the literal recurrence per user
    order = np.lexsort(
        (np.arange(1, n + 1), ts, uid)
    )
    brute = {}
    s_by_u = {}
    for i in order:
        u = uid[i]
        s = max(
            0, s_by_u.get(u, 0) + int(np.floor(vals[i] * 100)) - target
        )
        s_by_u[u] = s
        if s >= h:
            brute[i + 1] = s
    assert mine == brute and len(brute) > 20
    con = duckdb.connect()
    con.register("events", ev)
    ref = dict(
        con.execute(
            "WITH c AS (SELECT user_id, event_id, epoch_us(ts) AS t, "
            f"CAST(floor(value * 100) AS BIGINT) - {target} AS dev "
            "FROM events), "
            "p AS (SELECT user_id, event_id, t, CAST(sum(dev) OVER ("
            "PARTITION BY user_id ORDER BY t, event_id "
            "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS pl FROM c), "
            "m AS (SELECT user_id, event_id, t, pl, "
            "least(CAST(min(pl) OVER (PARTITION BY user_id "
            "ORDER BY t, event_id ROWS UNBOUNDED PRECEDING) "
            "AS BIGINT), 0) AS rmin FROM p) "
            "SELECT event_id, pl - rmin FROM m "
            f"WHERE pl - rmin >= {h}"
        ).fetchall()
    )
    assert mine == ref


def test_topk_with_other_differential(ray_session):
    """topk_with_other == DuckDB rank + CASE rollup on random skewed
    categories; groups with <= k categories emit no OTHER row."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import topk_with_other

    rng = np.random.default_rng(107)
    n = 3000
    tbl = pa.table(
        {
            "g": pa.array(
                list(rng.choice(["x", "y", "z", "solo"], n)),
                pa.string(),
            ),
            "c": pa.array(
                list(
                    np.where(
                        rng.random(n) < 0.95,
                        rng.choice(list("abcdefgh"), n),
                        "only",
                    )
                ),
                pa.string(),
            ),
        }
    )
    k = int(rng.integers(1, 4))
    mine = {
        (r["g"], r["c"]): r["n"]
        for r in topk_with_other(
            ray.data.from_arrow(tbl).repartition(7),
            "g",
            "c",
            k=k,
            n_buckets=8,
        ).take_all()
    }
    con = duckdb.connect()
    con.register("t", tbl)
    ref = {
        (g, c): v
        for g, c, v in con.execute(
            "WITH cc AS (SELECT g, c, CAST(count(*) AS BIGINT) AS n "
            "FROM t GROUP BY 1, 2), "
            "r AS (SELECT g, c, n, row_number() OVER (PARTITION BY g "
            "ORDER BY n DESC, c) AS rk FROM cc), "
            f"m AS (SELECT g, CASE WHEN rk <= {k} THEN c "
            "ELSE '<OTHER>' END AS c, n FROM r) "
            "SELECT g, c, CAST(sum(n) AS BIGINT) FROM m GROUP BY 1, 2"
        ).fetchall()
    }
    assert mine == ref
    assert any(c == "<OTHER>" for _, c in mine)


def test_new_vs_returning_differential(ray_session):
    """new_vs_returning == DuckDB distinct-pair + first-day mirror on
    a random multi-day stream; active = new + returning everywhere."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import new_vs_returning

    rng = np.random.default_rng(109)
    n, nu = 4000, 60
    uid = rng.integers(1, nu + 1, n).astype(np.int64)
    # ~20 days, heavy repeats within a day
    ts = rng.integers(0, 20 * 86_400_000_000, n).astype(np.int64)
    ev = pa.table(
        {
            "user_id": pa.array(uid),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    mine = {
        r["day"]: (r["n_active"], r["n_new"], r["n_returning"])
        for r in new_vs_returning(
            ray.data.from_arrow(ev).repartition(7), n_buckets=8
        ).take_all()
    }
    con = duckdb.connect()
    con.register("events", ev)
    ref = {
        d: (a, nn, nr)
        for d, a, nn, nr in con.execute(
            "WITH p AS (SELECT DISTINCT epoch_us(ts) // 86400000000 "
            "AS day, user_id FROM events), "
            "f AS (SELECT user_id, min(day) AS fday FROM p "
            "GROUP BY 1) "
            "SELECT p.day, CAST(count(*) AS BIGINT), "
            "CAST(count(*) FILTER (WHERE f.fday = p.day) AS BIGINT), "
            "CAST(count(*) FILTER (WHERE f.fday < p.day) AS BIGINT) "
            "FROM p JOIN f USING (user_id) GROUP BY p.day"
        ).fetchall()
    }
    assert mine == ref
    assert all(a == nn + nr for a, nn, nr in mine.values())
    assert sum(nn for _, nn, _ in mine.values()) == nu


def test_acf_daily_differential(ray_session):
    """acf_daily == the DuckDB HUGEINT-moment mirror on a random
    series with missing days; a planted perfectly periodic series
    gives acf ~= 1 at its period."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import acf_daily

    rng = np.random.default_rng(110)
    # random counts on a random subset of 40 days
    days = np.flatnonzero(rng.random(40) < 0.8)
    reps = rng.integers(1, 30, len(days))
    day_of = np.repeat(days, reps).astype(np.int64)
    ts = day_of * 86_400_000_000 + rng.integers(
        0, 86_400_000_000, len(day_of)
    )
    ev = pa.table({"ts": pa.array(ts, pa.timestamp("us"))})
    mine = acf_daily(
        ray.data.from_arrow(ev).repartition(7), max_lag=5
    ).to_pandas()
    con = duckdb.connect()
    con.register("events", ev)
    ref = con.execute(
        "WITH d AS (SELECT epoch_us(ts) // 86400000000 AS day, "
        "CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1), "
        "l AS (SELECT unnest(generate_series(1, 5)) AS lag), "
        "p AS (SELECT l.lag, a.n AS x, b.n AS y FROM l "
        "CROSS JOIN d a JOIN d b ON b.day = a.day + l.lag), "
        "m AS (SELECT lag, CAST(count(*) AS BIGINT) AS m, "
        "sum(CAST(x AS HUGEINT)) AS sx, "
        "sum(CAST(y AS HUGEINT)) AS sy, "
        "sum(CAST(x AS HUGEINT) * y) AS sxy, "
        "sum(CAST(x AS HUGEINT) * x) AS sxx, "
        "sum(CAST(y AS HUGEINT) * y) AS syy FROM p GROUP BY 1) "
        "SELECT l.lag, CAST(coalesce(m.m, 0) AS BIGINT) AS n_pairs, "
        "CASE WHEN m.m > 1 AND m.m * m.sxx - m.sx * m.sx > 0 "
        "AND m.m * m.syy - m.sy * m.sy > 0 THEN "
        "CAST(m.m * m.sxy - m.sx * m.sy AS DOUBLE) / "
        "sqrt(CAST(m.m * m.sxx - m.sx * m.sx AS DOUBLE) * "
        "CAST(m.m * m.syy - m.sy * m.sy AS DOUBLE)) "
        "ELSE NULL END AS acf "
        "FROM l LEFT JOIN m USING (lag) ORDER BY l.lag"
    ).fetchdf()
    mine = mine.sort_values("lag").reset_index(drop=True)
    assert list(mine["lag"]) == list(ref["lag"])
    assert list(mine["n_pairs"]) == list(ref["n_pairs"])
    for a, b in zip(mine["acf"], ref["acf"]):
        if a is None or (isinstance(a, float) and np.isnan(a)):
            assert b is None or np.isnan(b)
        else:
            assert abs(a - b) < 1e-12
    # planted period-3 series: acf at lag 3 is ~1
    per = np.repeat(
        np.arange(30, dtype=np.int64),
        np.tile([5, 17, 40], 10),
    )
    ev2 = pa.table(
        {"ts": pa.array(per * 86_400_000_000, pa.timestamp("us"))}
    )
    got = {
        r["lag"]: r["acf"]
        for r in acf_daily(
            ray.data.from_arrow(ev2).repartition(3), max_lag=3
        ).to_pylist()
    }
    assert got[3] > 0.999


def test_benford_digits_differential(ray_session):
    """benford_digits == the DuckDB string-digit mirror on random
    log-uniform prices; shares sum to 1, sub-cent and null values
    are excluded."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.profile import benford_digits

    rng = np.random.default_rng(111)
    n = 5000
    vals = 10.0 ** rng.uniform(-3, 5, n)
    vals = np.floor(vals * 100) / 100.0
    v = vals.astype(object)
    v[rng.random(n) < 0.02] = None  # nulls excluded
    tbl = pa.table({"o_totalprice": pa.array(list(v), pa.float64())})
    mine = benford_digits(
        ray.data.from_arrow(tbl).repartition(7), "o_totalprice"
    ).to_pandas()
    con = duckdb.connect()
    con.register("orders", tbl)
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
        "AS chi2_term FROM b ORDER BY digit"
    ).fetchdf()
    mine = mine.sort_values("digit").reset_index(drop=True)
    assert list(mine["digit"]) == list(ref["digit"])
    assert list(mine["n"]) == list(ref["n"])
    for col in ("share", "benford_p", "chi2_term"):
        assert np.allclose(mine[col], ref[col], atol=1e-12)
    assert abs(mine["share"].sum() - 1.0) < 1e-12


def test_quota_alloc_differential(ray_session):
    """quota_alloc == the DuckDB HUGEINT largest-remainder mirror on
    random skewed groups (null group included); allocations sum to
    the budget exactly."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.export import quota_alloc

    rng = np.random.default_rng(112)
    n = 3000
    groups = np.array(
        ["web", "book", "code", "wiki", "chat", "rare"], dtype=object
    )
    g = groups[
        np.minimum(
            rng.geometric(0.45, n) - 1, len(groups) - 1
        )
    ].astype(object)
    g[rng.random(n) < 0.01] = None  # SQL GROUP BY keeps null groups
    tbl = pa.table({"source": pa.array(list(g), pa.string())})
    budget = int(rng.integers(100, 5000))
    mine = {
        r["source"]: (r["n_docs"], r["alloc"])
        for r in quota_alloc(
            ray.data.from_arrow(tbl).repartition(7),
            budget=budget,
            group_col="source",
        ).to_pylist()
    }
    con = duckdb.connect()
    con.register("documents", tbl)
    ref = {
        s: (nd, al)
        for s, nd, al in con.execute(
            "WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n "
            "FROM documents GROUP BY 1), "
            f"t AS (SELECT source, n, CAST({budget} AS HUGEINT) * n "
            "AS q, sum(n) OVER () AS tot FROM c), "
            "b AS (SELECT source, n, CAST(q // tot AS BIGINT) "
            "AS base, q % tot AS rem FROM t), "
            "r AS (SELECT source, n, base, rem, row_number() OVER ("
            "ORDER BY rem DESC, source) AS rk, "
            "sum(base) OVER () AS basesum FROM b) "
            "SELECT source, n AS n_docs, CAST(base + CASE WHEN "
            f"rk <= {budget} - basesum THEN 1 ELSE 0 END AS BIGINT) "
            "AS alloc FROM r"
        ).fetchall()
    }
    assert mine == ref
    assert sum(a for _, a in mine.values()) == budget


def test_weighted_median_differential(ray_session):
    """weighted_median_per_group == the DuckDB cumulative-weight
    mirror on random tie-heavy values with null groups, values and
    weights; degenerates to the plain lower median when weights are
    constant."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        weighted_median_per_group,
    )

    rng = np.random.default_rng(113)
    n = 4000
    g = np.array(["a", "b", "c", "d"], dtype=object)[
        rng.integers(0, 4, n)
    ].astype(object)
    g[rng.random(n) < 0.02] = None
    v = np.floor(rng.uniform(0, 30, n)).astype(object)  # heavy ties
    v[rng.random(n) < 0.02] = None
    w = (np.floor(rng.uniform(0.5, 500, n) * 100) / 100.0).astype(
        object
    )
    w[rng.random(n) < 0.02] = None
    tbl = pa.table(
        {
            "g": pa.array(list(g), pa.string()),
            "v": pa.array(list(v), pa.float64()),
            "w": pa.array(list(w), pa.float64()),
        }
    )
    mine = {
        r["g"]: (r["total_w_cents"], r["wmedian"])
        for r in weighted_median_per_group(
            ray.data.from_arrow(tbl).repartition(7),
            "g",
            "v",
            "w",
            n_buckets=8,
        ).take_all()
    }
    con = duckdb.connect()
    con.register("t", tbl)
    ref = {
        gg: (tw, wm)
        for gg, tw, wm in con.execute(
            "WITH c AS (SELECT g, v, CAST(floor(w * 100) AS BIGINT) "
            "AS w FROM t WHERE v IS NOT NULL AND w IS NOT NULL), "
            "a AS (SELECT g, v, CAST(sum(w) AS BIGINT) AS wv FROM c "
            "GROUP BY 1, 2), "
            "r AS (SELECT g, v, wv, CAST(sum(wv) OVER ("
            "PARTITION BY g ORDER BY v ROWS UNBOUNDED PRECEDING) "
            "AS BIGINT) AS cw, CAST(sum(wv) OVER (PARTITION BY g) "
            "AS BIGINT) AS tw FROM a) "
            "SELECT g, max(tw), "
            "min(CASE WHEN 2 * cw >= tw THEN v END) FROM r GROUP BY 1"
        ).fetchall()
    }
    assert mine == ref and None in mine
    # constant weights -> plain lower median (percentile_disc 0.5)
    tbl2 = pa.table(
        {
            "g": pa.array(["x"] * 7, pa.string()),
            "v": pa.array([5.0, 1.0, 9.0, 3.0, 7.0, 3.0, 8.0]),
            "w": pa.array([1.0] * 7),
        }
    )
    got = weighted_median_per_group(
        ray.data.from_arrow(tbl2).repartition(3), "g", "v", "w"
    ).take_all()
    assert got[0]["wmedian"] == 5.0


def test_vocab_growth_differential(ray_session):
    """vocab_growth == the DuckDB first-occurrence mirror on a random
    tiny-vocab corpus (empty/null docs, unicode tokens); curves are
    monotone and end at the corpus totals."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import vocab_growth

    rng = np.random.default_rng(115)
    vocab = np.array(
        ["alpha", "beta", "gamma", "delta", "épsilon", "zeta."]
    )
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 25)))
        for _ in range(150)
    ]
    texts[0], texts[1] = "", None
    dt = pa.table(
        {
            "doc_id": pa.array(np.arange(150, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )
    mine = (
        vocab_growth(
            ray.data.from_arrow(dt).repartition(7),
            n_checkpoints=8,
            n_buckets=8,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", dt)
    ref = con.execute(
        "WITH t AS (SELECT doc_id, unnest(regexp_extract_all("
        "coalesce(text, ''), '\\S+')) AS tok FROM documents), "
        "f AS (SELECT tok, min(doc_id) AS fd FROM t GROUP BY 1), "
        "mx AS (SELECT max(doc_id) AS m FROM documents), "
        "c AS (SELECT k, (k * m) // 8 AS ckd FROM "
        "(SELECT unnest(generate_series(1, 8)) AS k), mx) "
        "SELECT c.k, c.ckd AS ck_doc, "
        "(SELECT CAST(count(*) AS BIGINT) FROM t "
        "WHERE doc_id <= c.ckd) AS n_tokens, "
        "(SELECT CAST(count(*) AS BIGINT) FROM f "
        "WHERE fd <= c.ckd) AS n_types FROM c ORDER BY c.k"
    ).fetchdf()
    assert mine.values.tolist() == ref.values.tolist()
    assert (mine["n_tokens"].diff().dropna() >= 0).all()
    assert (mine["n_types"].diff().dropna() >= 0).all()
    assert mine["n_types"].iloc[-1] <= len(vocab)


def test_welch_ab_differential(ray_session):
    """welch_ab == the DuckDB HUGEINT-moment mirror on random drifted
    variants (nulls, n=1 days, other-variant noise rows); a planted
    large shift gives |t| >> 0."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import welch_ab

    rng = np.random.default_rng(117)
    n = 6000
    day_us = 86_400_000_000
    vtypes = np.array(["A", "B", "other"], dtype=object)
    v = vtypes[rng.choice([0, 0, 1, 1, 2], n)]
    ts = rng.integers(0, 12 * day_us, n).astype(np.int64)
    vals = np.floor(rng.uniform(1, 80, n) * 100) / 100.0
    # plant a shift on variant B after day 6
    shift = (v == "B") & (ts > 6 * day_us)
    vals[shift] = vals[shift] + 40.0
    valso = vals.astype(object)
    valso[rng.random(n) < 0.02] = None
    ev = pa.table(
        {
            "event_type": pa.array(list(v), pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(list(valso), pa.float64()),
        }
    )
    mine = (
        welch_ab(
            ray.data.from_arrow(ev).repartition(7),
            variant_a="A",
            variant_b="B",
        )
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", ev)
    ref = con.execute(
        "WITH c AS (SELECT epoch_us(ts) // 86400000000 AS day, "
        "event_type AS v, CAST(floor(value * 100) AS BIGINT) AS x "
        "FROM events WHERE event_type IN ('A', 'B') "
        "AND value IS NOT NULL), "
        "a AS (SELECT day, v, CAST(count(*) AS BIGINT) AS n, "
        "sum(CAST(x AS HUGEINT)) AS sx, "
        "sum(CAST(x AS HUGEINT) * x) AS sxx FROM c GROUP BY 1, 2), "
        "j AS (SELECT a.day, a.n AS na, a.sx AS sxa, a.sxx AS sxxa, "
        "b.n AS nb, b.sx AS sxb, b.sxx AS sxxb "
        "FROM a JOIN a b ON a.day = b.day "
        "AND a.v = 'A' AND b.v = 'B'), "
        "w AS (SELECT day, na, nb, "
        "CAST(sxa AS DOUBLE) / CAST(na AS DOUBLE) AS ma, "
        "CAST(sxb AS DOUBLE) / CAST(nb AS DOUBLE) AS mb, "
        "CASE WHEN na > 1 THEN CAST(na * sxxa - sxa * sxa AS DOUBLE) "
        "/ CAST(na * (na - 1) AS DOUBLE) END AS va, "
        "CASE WHEN nb > 1 THEN CAST(nb * sxxb - sxb * sxb AS DOUBLE) "
        "/ CAST(nb * (nb - 1) AS DOUBLE) END AS vb FROM j) "
        "SELECT day, na AS n_a, nb AS n_b, ma / 100.0 AS mean_a, "
        "mb / 100.0 AS mean_b, "
        "CASE WHEN va IS NOT NULL AND vb IS NOT NULL "
        "AND va / na + vb / nb > 0 THEN "
        "(ma - mb) / sqrt(va / na + vb / nb) END AS t_stat FROM w "
        "ORDER BY day"
    ).fetchdf()
    assert list(mine["day"]) == list(ref["day"])
    for c in ("n_a", "n_b"):
        assert list(mine[c]) == list(ref[c])
    for c in ("mean_a", "mean_b", "t_stat"):
        a, b = mine[c], ref[c]
        assert ((a - b).abs().fillna(0) < 1e-9).all()
        assert (a.isna() == b.isna()).all()
    late = mine[mine["day"] > 6]["t_stat"].dropna()
    assert (late < -5).all()  # planted +$40 shift on B


def test_km_retention_differential(ray_session):
    """km_retention == the DuckDB KM mirror on a random sparse-user
    stream (varied spans, heavy censoring); survival is monotone
    non-increasing in (0, 1]."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import km_retention

    rng = np.random.default_rng(119)
    day_us = 86_400_000_000
    rows_u, rows_t = [], []
    for u in range(1, 200):
        start = int(rng.integers(0, 25))
        span = int(rng.integers(0, 25 - start + 1))
        k = int(rng.integers(1, 6))
        days = np.concatenate(
            [[start, start + span],
             rng.integers(start, start + span + 1, k)]
        )
        for d in days:
            rows_u.append(u)
            rows_t.append(
                int(d) * day_us + int(rng.integers(0, day_us))
            )
    ev = pa.table(
        {
            "user_id": pa.array(rows_u, pa.int64()),
            "ts": pa.array(
                np.array(rows_t, dtype=np.int64), pa.timestamp("us")
            ),
        }
    )
    mine = (
        km_retention(
            ray.data.from_arrow(ev).repartition(7), n_buckets=8
        )
        .to_pandas()
        .sort_values("dur")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", ev)
    ref = con.execute(
        "WITH e AS (SELECT user_id, epoch_us(ts) // 86400000000 "
        "AS day FROM events), "
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
        "FROM r ORDER BY dur"
    ).fetchdf()
    assert list(mine["dur"]) == list(ref["dur"])
    assert list(mine["deaths"]) == list(ref["deaths"])
    assert list(mine["at_risk"]) == list(ref["at_risk"])
    assert ((mine["survival"] - ref["survival"]).abs() < 1e-12).all()
    s = mine["survival"].to_numpy()
    assert len(s) > 5 and (np.diff(s) <= 0).all()
    assert (s > 0).all() and (s <= 1).all()


def test_rank_sum_test_differential(ray_session):
    """rank_sum_test == DuckDB mirror AND scipy-free brute force on a
    tie-heavy random sample; a planted location shift gives |z| >> 0
    and the guard trips above max_distinct."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pytest

    import ray.data

    from console_log_parser_ray.stages.events import rank_sum_test

    rng = np.random.default_rng(121)
    n = 3000
    v = np.array(["A", "B", "noise"], dtype=object)[
        rng.choice([0, 1, 1, 2], n)
    ]
    vals = np.floor(rng.uniform(0, 40, n)) / 2.0  # heavy ties
    vals[v == "B"] += 1.5  # planted shift
    vo = vals.astype(object)
    vo[rng.random(n) < 0.02] = None
    ev = pa.table(
        {
            "event_type": pa.array(list(v), pa.string()),
            "value": pa.array(list(vo), pa.float64()),
        }
    )
    got = rank_sum_test(
        ray.data.from_arrow(ev).repartition(7), "A", "B"
    ).to_pylist()[0]
    con = duckdb.connect()
    con.register("events", ev)
    ref = con.execute(
        "WITH c AS (SELECT CAST(floor(value * 100) AS BIGINT) AS x, "
        "event_type AS v FROM events WHERE event_type IN ('A', 'B') "
        "AND value IS NOT NULL), "
        "h AS (SELECT x, CAST(count(*) FILTER (WHERE v = 'A') "
        "AS BIGINT) AS ca, CAST(count(*) FILTER (WHERE v = 'B') "
        "AS BIGINT) AS cb FROM c GROUP BY 1), "
        "o AS (SELECT x, ca, cb, ca + cb AS t, "
        "CAST(coalesce(sum(ca + cb) OVER (ORDER BY x ROWS BETWEEN "
        "UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS cumb, "
        "CAST(sum(ca) OVER (ORDER BY x ROWS UNBOUNDED PRECEDING) "
        "AS BIGINT) AS cuma_run, "
        "CAST(sum(cb) OVER (ORDER BY x ROWS UNBOUNDED PRECEDING) "
        "AS BIGINT) AS cumb_run FROM h), "
        "tot AS (SELECT CAST(sum(ca) AS BIGINT) AS na, "
        "CAST(sum(cb) AS BIGINT) AS nb FROM h), "
        "agg AS (SELECT sum(CAST(ca AS HUGEINT) * (2 * cumb + t + 1)) "
        "AS two_ua, sum(CAST(t AS HUGEINT) * t * t - t) AS tie, "
        "max(abs(CAST(cuma_run AS DOUBLE) / (SELECT CAST(na AS "
        "DOUBLE) FROM tot) - CAST(cumb_run AS DOUBLE) / (SELECT "
        "CAST(nb AS DOUBLE) FROM tot))) AS ks_d FROM o), "
        "fin AS (SELECT t.na, t.nb, CAST(a.two_ua - CAST(t.na AS "
        "HUGEINT) * (t.na + 1) AS DOUBLE) / 2.0 AS u_a, "
        "CAST(t.na AS DOUBLE) * CAST(t.nb AS DOUBLE) / 2.0 AS mu, "
        "CAST(CAST(t.na AS HUGEINT) * t.nb AS DOUBLE) * "
        "(CAST(t.na + t.nb + 1 AS DOUBLE) - CAST(a.tie AS DOUBLE) / "
        "CAST(CAST(t.na + t.nb AS HUGEINT) * (t.na + t.nb - 1) "
        "AS DOUBLE)) / 12.0 AS vr, a.ks_d FROM tot t, agg a) "
        "SELECT na, nb, u_a, CASE WHEN vr > 0 THEN (u_a - mu) / "
        "sqrt(vr) END AS z, ks_d FROM fin"
    ).fetchone()
    assert (got["n_a"], got["n_b"]) == (ref[0], ref[1])
    assert abs(got["u_a"] - ref[2]) < 1e-9
    assert abs(got["z"] - ref[3]) < 1e-9
    assert abs(got["ks_d"] - ref[4]) < 1e-12
    # brute-force U from average ranks (pure numpy, independent path)
    mask = np.array([x is not None for x in vo]) & np.isin(v, ["A", "B"])
    xs = np.floor(np.array([x or 0 for x in vo])[mask] * 100).astype(
        np.int64
    )
    sides = v[mask]
    order = np.argsort(xs, kind="stable")
    xs_s, sides_s = xs[order], sides[order]
    ranks = np.empty(len(xs_s), dtype=np.float64)
    i = 0
    while i < len(xs_s):
        j = i
        while j < len(xs_s) and xs_s[j] == xs_s[i]:
            j += 1
        ranks[i:j] = (i + 1 + j) / 2.0
        i = j
    na = int((sides_s == "A").sum())
    u_brute = float(ranks[sides_s == "A"].sum()) - na * (na + 1) / 2.0
    assert abs(got["u_a"] - u_brute) < 1e-6
    assert got["z"] < -3  # planted +1.5 shift on B
    # guard: cap smaller than the distinct-value count raises
    with pytest.raises(ValueError, match="max_distinct"):
        rank_sum_test(
            ray.data.from_arrow(ev).repartition(3),
            "A",
            "B",
            max_distinct=5,
        )


def test_late_events_differential(ray_session):
    """late_events == the DuckDB running-max watermark mirror AND a
    literal sequential replay, on a shuffled-arrival random stream."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import late_events

    rng = np.random.default_rng(123)
    n = 4000
    day_us = 86_400_000_000
    # event times roughly follow arrival, with heavy jitter so some
    # arrive far behind the watermark
    base = np.sort(rng.integers(0, 9 * day_us, n)).astype(np.int64)
    jitter = rng.integers(-2 * day_us, day_us // 4, n)
    ts = np.maximum(base + jitter, 0).astype(np.int64)
    # non-contiguous, shuffled arrival ids
    ids = rng.permutation(np.arange(1, 3 * n, 3, dtype=np.int64))
    order = np.argsort(ids)  # arrival replay order
    ev = pa.table(
        {
            "event_id": pa.array(ids, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    thr = int(6 * 3_600_000_000)
    mine = {
        r["day"]: (r["n_events"], r["n_late"], r["max_late_us"])
        for r in late_events(
            ray.data.from_arrow(ev).repartition(7),
            threshold_us=thr,
            n_buckets=8,
        ).take_all()
    }
    con = duckdb.connect()
    con.register("events", ev)
    ref = {
        d: (a, b, c)
        for d, a, b, c in con.execute(
            "WITH w AS (SELECT event_id, ts, epoch_us(max(ts) OVER ("
            "ORDER BY event_id ROWS UNBOUNDED PRECEDING)) - "
            "epoch_us(ts) AS late_us FROM events) "
            "SELECT epoch_us(ts) // 86400000000 AS day, "
            "CAST(count(*) AS BIGINT), "
            f"CAST(count(*) FILTER (WHERE late_us > {thr}) AS BIGINT), "
            "CAST(max(late_us) AS BIGINT) FROM w GROUP BY 1"
        ).fetchall()
    }
    assert mine == ref
    # literal sequential replay
    wm = -1
    agg = {}
    for k in order:
        wm = max(wm, int(ts[k]))
        late = wm - int(ts[k])
        d = int(ts[k]) // day_us
        e, l, m = agg.get(d, (0, 0, 0))
        agg[d] = (e + 1, l + (late > thr), max(m, late))
    assert mine == agg
    assert sum(l for _, l, _ in mine.values()) > 0


def test_chi2_contingency_2x2_differential(ray_session):
    """chi2_contingency_2x2 == hand formula on a planted-association
    random table; independence gives chi2 ~ 0 on a balanced design."""
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        chi2_contingency_2x2,
    )

    rng = np.random.default_rng(77)
    n = 5000
    a = rng.random(n) < 0.4
    # planted dependence: b more likely when a
    b = rng.random(n) < np.where(a, 0.7, 0.3)
    ao = a.astype(object)
    bo = b.astype(object)
    ao[rng.random(n) < 0.03] = None
    bo[rng.random(n) < 0.03] = None
    t = pa.table(
        {
            "a": pa.array(list(ao), pa.bool_()),
            "b": pa.array(list(bo), pa.bool_()),
        }
    )
    got = chi2_contingency_2x2(
        ray.data.from_arrow(t).repartition(5)
    ).to_pylist()[0]
    keep = np.array([x is not None and y is not None
                     for x, y in zip(ao, bo)])
    av, bv = a[keep], b[keep]
    n11 = int(np.sum(av & bv))
    n10 = int(np.sum(av & ~bv))
    n01 = int(np.sum(~av & bv))
    n00 = int(np.sum(~av & ~bv))
    assert (got["n11"], got["n10"], got["n01"], got["n00"]) == (
        n11,
        n10,
        n01,
        n00,
    )
    nn = n11 + n10 + n01 + n00
    r1, r0, c1, c0 = n11 + n10, n01 + n00, n11 + n01, n10 + n00
    d = n11 * n00 - n10 * n01
    chi2 = float(nn * d * d) / float(r1 * r0 * c1 * c0)
    assert got["chi2"] == chi2
    assert got["phi"] == float(d) / math.sqrt(
        float(r1 * r0) * float(c1 * c0)
    )
    # brute-force expected-count formulation agrees to float noise
    exp = np.array(
        [
            [r1 * c1 / nn, r1 * c0 / nn],
            [r0 * c1 / nn, r0 * c0 / nn],
        ]
    )
    obs = np.array([[n11, n10], [n01, n00]], dtype=float)
    assert abs(chi2 - float(((obs - exp) ** 2 / exp).sum())) < 1e-6
    assert got["chi2"] > 100.0  # the planted association is strong
    assert got["odds_ratio"] > 1.0


def test_spearman_corr_differential(ray_session):
    """spearman_corr == pandas average-rank Pearson on a tie-heavy
    random sample; the guard trips above max_distinct."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest

    import ray.data

    from console_log_parser_ray.stages.events import spearman_corr

    rng = np.random.default_rng(99)
    n = 4000
    x = rng.integers(0, 60, n)  # heavy ties
    y = 3 * x + rng.integers(-40, 40, n)  # monotone-ish + noise
    xo, yo = x.astype(object), y.astype(object)
    xo[rng.random(n) < 0.02] = None
    yo[rng.random(n) < 0.02] = None
    t = pa.table(
        {
            "x": pa.array(list(xo), pa.int64()),
            "y": pa.array(list(yo), pa.int64()),
        }
    )
    got = spearman_corr(
        ray.data.from_arrow(t).repartition(6)
    ).to_pylist()[0]
    df = pd.DataFrame({"x": xo, "y": yo}).dropna()
    rx = df["x"].rank(method="average")
    ry = df["y"].rank(method="average")
    ref = float(np.corrcoef(rx, ry)[0, 1])
    assert got["n"] == len(df)
    assert abs(got["rho"] - ref) < 1e-9
    assert got["rho"] > 0.8  # planted monotone association
    with pytest.raises(ValueError, match="max_distinct"):
        spearman_corr(ray.data.from_arrow(t), max_distinct=10)


def test_slo_burn_alerts_differential(ray_session):
    """slo_burn_alerts == pandas RANGE-window brute force, including
    hour gaps (calendar window, not row window)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import slo_burn_alerts

    rng = np.random.default_rng(5)
    n = 6000
    # hours with deliberate gaps + a planted burst
    hours = np.sort(rng.choice(np.arange(0, 300, dtype=np.int64), n))
    hours = hours[(hours % 13 != 0)]  # punch gaps
    kinds = np.where(
        rng.random(len(hours)) < np.where(hours % 50 < 3, 0.5, 0.02),
        "error",
        "click",
    )
    t = pa.table(
        {
            "event_type": pa.array(list(kinds), pa.string()),
            "ts": pa.array(
                hours * 3_600_000_000 + 7, pa.timestamp("us")
            ),
        }
    )
    got = (
        slo_burn_alerts(ray.data.from_arrow(t).repartition(4))
        .to_pandas()
        .sort_values("hour")
        .reset_index(drop=True)
    )
    df = pd.DataFrame({"hour": hours, "err": kinds == "error"})
    h = (
        df.groupby("hour")
        .agg(n=("err", "size"), e=("err", "sum"))
        .reset_index()
    )
    nw, ew = [], []
    for hr in h["hour"]:
        m = (h["hour"] >= hr - 5) & (h["hour"] <= hr)
        nw.append(int(h.loc[m, "n"].sum()))
        ew.append(int(h.loc[m, "e"].sum()))
    assert list(got["hour"]) == list(h["hour"])
    assert list(got["n_events"]) == list(h["n"])
    assert list(got["n_errors"]) == list(h["e"])
    assert list(got["n_window"]) == nw
    assert list(got["e_window"]) == ew
    ref_alert = (h["e"].to_numpy() * 10 > h["n"].to_numpy()) & (
        np.array(ew) * 20 > np.array(nw)
    )
    assert list(got["alert"]) == list(ref_alert)
    assert ref_alert.any()  # the planted burst fires


def test_dow_seasonality_differential(ray_session):
    """dow_seasonality == pandas brute force with a planted weekend
    spike; distinct-day calendar weights partial weeks."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import dow_seasonality

    rng = np.random.default_rng(17)
    n = 8000
    days = rng.integers(0, 45, n)  # ~6.4 weeks: partial coverage
    dow = (days + 4) % 7
    keep = rng.random(n) < np.where(np.isin(dow, (0, 6)), 0.9, 0.4)
    days = days[keep]
    kinds = np.where(rng.random(len(days)) < 0.5, "click", "view")
    t = pa.table(
        {
            "event_type": pa.array(list(kinds), pa.string()),
            "ts": pa.array(
                days * 86_400_000_000 + 123, pa.timestamp("us")
            ),
        }
    )
    got = (
        dow_seasonality(ray.data.from_arrow(t).repartition(4))
        .to_pandas()
        .sort_values(["k", "dow"])
        .reset_index(drop=True)
    )
    df = pd.DataFrame(
        {"k": kinds, "day": days, "dow": (days + 4) % 7}
    )
    d_total = df["day"].nunique()
    dd = df.drop_duplicates("day").groupby("dow").size()
    ref = (
        df.groupby(["k", "dow"])
        .size()
        .reset_index(name="n")
        .sort_values(["k", "dow"])
        .reset_index(drop=True)
    )
    nk = df.groupby("k").size()
    assert list(got["k"]) == list(ref["k"])
    assert list(got["dow"]) == list(ref["dow"])
    assert list(got["n_events"]) == list(ref["n"])
    for _, r in got.iterrows():
        assert r["n_days"] == dd[r["dow"]]
        assert r["events_per_day"] == float(r["n_events"]) / float(
            dd[r["dow"]]
        )
        assert r["season_idx"] == float(
            r["n_events"] * d_total
        ) / float(dd[r["dow"]] * nk[r["k"]])
    # weekend dows (0, 6) were planted hotter
    wk = got[got["dow"].isin((0, 6))]["season_idx"].mean()
    wd = got[~got["dow"].isin((0, 6))]["season_idx"].mean()
    assert wk > wd


def test_readability_scores_differential(ray_session):
    """readability_scores == python re brute force; empty / null
    text gives NULL score; punctuation-free prose is one sentence."""
    import re

    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import readability_scores

    texts = [
        "The quick brown fox jumps. It runs! Does it rest?",
        "no punctuation here just words",
        "",
        None,
        "aeiou bcdfg xyz!!!",
        "Syllables are approximated by vowel groups, imperfectly.",
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = (
        readability_scores(ray.data.from_arrow(t).repartition(2))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for i, txt in enumerate(texts):
        s = txt or ""
        w = len(re.findall(r"\S+", s))
        se = max(len(re.findall(r"[.!?]+", s)), 1)
        sy = len(re.findall(r"[aeiouyAEIOUY]+", s))
        row = got.iloc[i]
        assert row["n_words"] == w
        assert row["n_sentences"] == se
        assert row["n_syllables"] == sy
        if w == 0:
            assert row["flesch"] != row["flesch"]  # NaN/NULL
        else:
            assert row["flesch"] == 206.835 - 1.015 * (
                float(w) / float(se)
            ) - 84.6 * (float(sy) / float(w))


def test_split_leakage_differential(ray_session):
    """split_leakage == hashlib brute force; counts sum to group
    sizes and multi-row groups leak under the row-level hash."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.export import split_leakage

    rng = np.random.default_rng(31)
    n = 3000
    ids = np.arange(n, dtype=np.int64)
    groups = np.array([f"g{int(i)}" for i in rng.integers(0, 12, n)])
    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "source": pa.array(list(groups), pa.string()),
        }
    )
    got = (
        split_leakage(
            ray.data.from_arrow(t).repartition(5),
            group_col="source",
        )
        .to_pandas()
        .set_index("source")
    )
    two52 = float(1 << 52)
    ref: dict = {}
    for i, g in zip(ids, groups):
        u = (
            int(hashlib.md5(str(i).encode()).hexdigest()[:13], 16)
            / two52
        )
        si = 0 if u < 0.9 else (1 if u < 0.95 else 2)
        ref.setdefault(g, [0, 0, 0])[si] += 1
    assert len(got) == len(ref)
    for g, (a, b, c) in ref.items():
        row = got.loc[g]
        assert (row["n_train"], row["n_val"], row["n_test"]) == (
            a,
            b,
            c,
        )
        assert bool(row["leaky"]) == (a > 0 and c > 0)


def test_clustering_coefficients_differential(ray_session):
    """clustering_coefficients == brute-force adjacency enumeration
    on a random graph; degree-1 nodes get NULL, triangle-free get 0."""
    import itertools

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.graph import (
        clustering_coefficients,
    )

    rng = np.random.default_rng(13)
    n_nodes = 60
    pairs = sorted(
        {
            (int(a), int(b))
            for a, b in rng.integers(0, n_nodes, (400, 2))
            if a < b
        }
    )
    edges = pa.table(
        {
            "a": pa.array([p[0] for p in pairs], pa.int64()),
            "b": pa.array([p[1] for p in pairs], pa.int64()),
        }
    )
    got = (
        clustering_coefficients(
            ray.data.from_arrow(edges).repartition(4), n_buckets=8
        )
        .to_pandas()
        .set_index("node")
        .sort_index()
    )
    adj: dict = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    assert set(got.index) == set(adj)
    for node, nbrs in adj.items():
        d = len(nbrs)
        t = sum(
            1
            for x, y in itertools.combinations(sorted(nbrs), 2)
            if y in adj.get(x, ())
        )
        row = got.loc[node]
        assert row["degree"] == d
        assert row["n_tri"] == t
        if d >= 2:
            assert row["cc"] == (2.0 * t) / float(d * (d - 1))
        else:
            assert row["cc"] != row["cc"]  # NULL


def test_last_touch_attribution_differential(ray_session):
    """last_touch_attribution == python brute force with the
    (ts DESC, id DESC) tie rule, window cut, and 'none' fallback."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        last_touch_attribution,
    )

    rng = np.random.default_rng(23)
    n = 4000
    W = 1000
    users = rng.integers(0, 40, n)
    ts = rng.integers(0, 20000, n)
    kinds = np.array(["purchase", "click", "view", "noise"])[
        rng.choice([0, 1, 2, 3], n, p=[0.2, 0.35, 0.35, 0.1])
    ]
    vals = np.round(rng.uniform(0, 50, n), 2).astype(object)
    vals[rng.random(n) < 0.05] = None
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "user_id": pa.array(users, pa.int64()),
            "event_type": pa.array(list(kinds), pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(list(vals), pa.float64()),
        }
    )
    got = (
        last_touch_attribution(
            ray.data.from_arrow(t).repartition(6),
            window_us=W,
            n_buckets=8,
        )
        .to_pandas()
        .set_index("attr_type")
    )
    ref: dict = {}
    df = pd.DataFrame(
        {"id": np.arange(n), "u": users, "t": ts, "k": kinds,
         "v": vals}
    )
    touches = df[df["k"].isin(("click", "view"))]
    for _, p in df[df["k"] == "purchase"].iterrows():
        cand = touches[
            (touches["u"] == p["u"])
            & (touches["t"] < p["t"])
            & (touches["t"] >= p["t"] - W)
        ]
        if len(cand):
            best = cand.sort_values(
                ["t", "id"], ascending=False
            ).iloc[0]
            key = best["k"]
        else:
            key = "none"
        cents = (
            None if p["v"] is None else int(np.floor(p["v"] * 100))
        )
        agg = ref.setdefault(key, [0, 0, 0])
        agg[0] += 1
        if cents is not None:
            agg[1] += cents
            agg[2] += 1
    assert set(got.index) == set(ref)
    for k, (cnt, cents, nv) in ref.items():
        row = got.loc[k]
        assert row["n_conversions"] == cnt
        if nv:
            assert row["sum_value_cents"] == cents
        else:
            assert pd.isna(row["sum_value_cents"])


def test_psi_drift_differential(ray_session):
    """psi_drift == python brute force with a planted mean shift in
    the second half; contributions localize the drift."""
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import psi_drift

    rng = np.random.default_rng(41)
    n = 9000
    ts = np.sort(rng.integers(0, 10_000_000, n))
    mid = (int(ts.min()) + int(ts.max())) // 2
    vals = rng.normal(20, 5, n)
    vals[ts >= mid] += 4.0  # planted drift
    t = pa.table(
        {
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(vals, pa.float64()),
        }
    )
    got = (
        psi_drift(ray.data.from_arrow(t).repartition(5))
        .to_pandas()
        .set_index("bin")
        .sort_index()
    )
    cents = np.floor(vals * 100).astype(np.int64)
    ref_v = np.sort(cents[ts < mid])
    cur_v = cents[ts >= mid]
    A, B = len(ref_v), len(cur_v)
    edges = []
    for i in range(1, 10):
        target = (i * A + 9) // 10
        edges.append(ref_v[target - 1])  # smallest with cum >= target
    edges = np.array(edges, np.int64)
    ba = np.bincount(np.searchsorted(edges, ref_v, "left"),
                     minlength=10)
    bb = np.bincount(np.searchsorted(edges, cur_v, "left"),
                     minlength=10)
    psi_total = 0.0
    for k in range(10):
        a, b = int(ba[k]), int(bb[k])
        row = got.loc[k]
        assert row["n_ref"] == a and row["n_cur"] == b
        if a > 0 and b > 0:
            contrib = (a / A - b / B) * math.log((a * B) / (b * A))
            assert abs(row["psi_contrib"] - contrib) < 1e-12
            psi_total += contrib
    assert psi_total > 0.2  # the planted shift alarms


def test_interarrival_fit_differential(ray_session):
    """interarrival_fit == python brute force; a planted periodic
    stream scores a much larger KS than an exponential one."""
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import interarrival_fit

    rng = np.random.default_rng(53)
    exp_ts = np.cumsum(
        rng.exponential(1000, 3000).astype(np.int64) + 1
    )
    per_ts = np.arange(3000, dtype=np.int64) * 1000 + 17
    rows_t, rows_k = [], []
    for k, arr in (("poissonish", exp_ts), ("periodic", per_ts)):
        rows_t.extend(arr.tolist())
        rows_k.extend([k] * len(arr))
    order = rng.permutation(len(rows_t))  # arrival order scrambled
    t = pa.table(
        {
            "event_type": pa.array(
                [rows_k[i] for i in order], pa.string()
            ),
            "ts": pa.array(
                np.array([rows_t[i] for i in order], np.int64),
                pa.timestamp("us"),
            ),
        }
    )
    got = (
        interarrival_fit(
            ray.data.from_arrow(t).repartition(7), n_buckets=16
        )
        .to_pandas()
        .set_index("event_type")
    )
    for k, arr in (("poissonish", exp_ts), ("periodic", per_ts)):
        gaps = np.diff(np.sort(arr))
        n = len(gaps)
        s = int(gaps.sum())
        mean = float(s) / float(n)
        vals, cnt = np.unique(gaps, return_counts=True)
        cum = 0
        d = 0.0
        for g, c in zip(vals, cnt):
            fe = 1.0 - math.exp(-(float(g) / mean))
            d = max(d, abs(cum / n - fe))
            cum += int(c)
            d = max(d, abs(cum / n - fe))
        row = got.loc[k]
        assert row["n_gaps"] == n
        assert row["sum_gap_us"] == s
        assert row["mean_gap_us"] == mean
        assert abs(row["ks_d"] - d) < 1e-12
    assert got.loc["periodic", "ks_d"] > 3 * got.loc[
        "poissonish", "ks_d"
    ]


def test_hysteresis_alerts_differential(ray_session):
    """hysteresis_alerts == python brute force on a crafted stream:
    flapping inside the band must NOT re-alert; crossing below lo
    re-arms."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import hysteresis_alerts

    rng = np.random.default_rng(71)
    n = 8000
    ts = rng.choice(
        np.arange(0, 50_000_000, 7, dtype=np.int64), n, replace=False
    )
    vals = rng.uniform(0, 150, n)
    keys = rng.choice(["a", "b", "c"], n)
    t = pa.table(
        {
            "event_type": pa.array(keys, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(vals, pa.float64()),
        }
    )
    got = (
        hysteresis_alerts(
            ray.data.from_arrow(t).repartition(6),
            hi=100.0,
            lo=40.0,
            n_buckets=16,
        )
        .to_pandas()
        .set_index("event_type")
    )
    for k in ("a", "b", "c"):
        mask = keys == k
        order = np.lexsort((vals[mask], ts[mask]))
        v = vals[mask][order]
        state = None
        n_on = n_alerts = 0
        for x in v:
            if x >= 100.0:
                if state != 1:
                    n_alerts += 1
                state = 1
            elif x < 40.0:
                state = 0
            if state == 1:
                n_on += 1
        row = got.loc[k]
        assert row["n_rows"] == int(mask.sum())
        assert row["n_on"] == n_on
        assert row["n_alerts"] == n_alerts
        # flapping in (lo, hi) can never out-alert the ON samples
        assert row["n_alerts"] <= row["n_on"]


def test_fano_factor_differential(ray_session):
    """fano_factor == python brute force INCLUDING empty windows; a
    bursty stream scores far above a uniform one."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import fano_factor

    w = 1000
    uniform = np.arange(0, 100_000, 50, dtype=np.int64)  # 2 per window
    burst = np.concatenate(
        [
            np.arange(0, 500, 1, dtype=np.int64),  # one packed window
            np.array([99_999], np.int64),  # pins the same global span
        ]
    )
    rows_t = np.concatenate([uniform, burst])
    rows_k = ["uniform"] * len(uniform) + ["burst"] * len(burst)
    t = pa.table(
        {
            "event_type": pa.array(rows_k, pa.string()),
            "ts": pa.array(rows_t, pa.timestamp("us")),
        }
    )
    got = (
        fano_factor(
            ray.data.from_arrow(t).repartition(5), window_us=w
        )
        .to_pandas()
        .set_index("event_type")
    )
    mn, mx = int(rows_t.min()), int(rows_t.max())
    n_win = (mx - mn) // w + 1
    for k, arr in (("uniform", uniform), ("burst", burst)):
        counts = np.bincount((arr - mn) // w, minlength=n_win)
        assert len(counts) == n_win
        fano = counts.var() / counts.mean()
        row = got.loc[k]
        assert row["n_windows"] == n_win
        assert row["n_events"] == len(arr)
        assert abs(row["fano"] - fano) < 1e-9
    assert (
        got.loc["burst", "fano"] > 50 * got.loc["uniform", "fano"]
    )


def test_changepoint_mean_differential(ray_session):
    """changepoint_mean == python brute force over every split; a
    planted level shift is recovered exactly."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import changepoint_mean

    rng = np.random.default_rng(97)
    n = 6000
    ts = rng.choice(
        np.arange(0, 40_000_000, 3, dtype=np.int64), n, replace=False
    )
    keys = rng.choice(["a", "b"], n)
    vals = rng.uniform(10, 20, n)
    shift_at = 25_000_000
    vals[(keys == "a") & (ts >= shift_at)] += 30.0  # planted shift
    t = pa.table(
        {
            "event_type": pa.array(keys, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(vals, pa.float64()),
        }
    )
    got = (
        changepoint_mean(
            ray.data.from_arrow(t).repartition(6), n_buckets=16
        )
        .to_pandas()
        .set_index("event_type")
    )
    for k in ("a", "b"):
        mask = keys == k
        order = np.lexsort((vals[mask], ts[mask]))
        tt = ts[mask][order]
        cents = np.floor(vals[mask][order] * 100).astype(np.int64)
        nn = len(cents)
        s1l = np.cumsum(cents)[:-1]
        nl = np.arange(1, nn, dtype=np.int64)
        s1 = int(cents.sum())
        g = (s1l * s1l).astype(np.float64) / nl + (
            (s1 - s1l) * (s1 - s1l)
        ).astype(np.float64) / (nn - nl)
        j = int(np.argmax(g))
        row = got.loc[k]
        assert row["n_rows"] == nn
        assert row["split_n"] == j + 1
        assert row["split_ts_us"] == tt[j]
        assert row["gstat"] == g[j]
        assert row["mean_left"] == float(int(s1l[j])) / float(j + 1)
    # the planted shift is recovered at the right boundary
    a_ts = np.sort(ts[keys == "a"])
    expect_split = int((a_ts < shift_at).sum())
    assert got.loc["a", "split_n"] == expect_split
    assert got.loc["a", "mean_right"] - got.loc["a", "mean_left"] > 25


def test_window_movers_differential(ray_session):
    """window_movers == python LAG brute force; single-active-window
    keys drop out."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import window_movers

    rng = np.random.default_rng(13)
    w = 1000
    rows_t, rows_k = [], []
    # key a: ramp with a big jump; key b: one window only
    rows_t.append(0)  # pins min ts so window ids align at 0
    rows_k.append("a")
    for win, c in ((0, 2), (2, 5), (3, 40), (7, 1)):
        rows_t.extend(
            (win * w + rng.integers(0, w, c)).tolist()
        )
        rows_k.extend(["a"] * c)
    rows_t.extend([5 * w + 10] * 4)
    rows_k.extend(["b"] * 4)
    t = pa.table(
        {
            "event_type": pa.array(rows_k, pa.string()),
            "ts": pa.array(
                np.array(rows_t, np.int64), pa.timestamp("us")
            ),
        }
    )
    got = (
        window_movers(
            ray.data.from_arrow(t).repartition(4), window_us=w
        )
        .to_pandas()
        .set_index("event_type")
    )
    assert "b" not in got.index  # one active window -> no step
    row = got.loc["a"]
    assert row["win"] == 3 and row["prev_win"] == 2
    assert row["c_prev"] == 5 and row["c_cur"] == 40
    assert row["delta"] == 35


def test_log_odds_tokens_differential(ray_session):
    """log_odds_tokens == python brute force; a token planted only in
    group A tops the ranking."""
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import log_odds_tokens

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(40)]
    docs, srcs = [], []
    for i in range(300):
        is_a = i % 3 == 0
        words = list(rng.choice(vocab, 20))
        if is_a:
            words.extend(["aardvark"] * 3)  # planted A-only token
        docs.append(" ".join(words))
        srcs.append("A" if is_a else f"B{i % 4}")
    t = pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "text": pa.array(docs, pa.string()),
        }
    )
    got = log_odds_tokens(
        ray.data.from_arrow(t).repartition(5),
        group_a="A",
        k=10,
        n_buckets=8,
    ).to_pandas()
    # brute force
    ya_map, yb_map = {}, {}
    for s, d in zip(srcs, docs):
        m = ya_map if s == "A" else yb_map
        for w in d.split():
            m[w] = m.get(w, 0) + 1
    na, nb = sum(ya_map.values()), sum(yb_map.values())
    a0 = na + nb
    rows = []
    for w in set(ya_map) | set(yb_map):
        ya, yb = ya_map.get(w, 0), yb_map.get(w, 0)
        aw = ya + yb
        z = (
            math.log(ya + aw)
            - math.log(na + a0 - ya - aw)
            - math.log(yb + aw)
            + math.log(nb + a0 - yb - aw)
        ) / math.sqrt(1.0 / (ya + aw) + 1.0 / (yb + aw))
        rows.append((w, ya, yb, z))
    rows.sort(key=lambda r: (-r[3], r[0]))
    assert got["tok"].tolist() == [r[0] for r in rows[:10]]
    assert got["y_a"].tolist() == [r[1] for r in rows[:10]]
    assert got["z"].tolist() == [r[3] for r in rows[:10]]
    assert got["tok"][0] == "aardvark"


def test_token_burstiness_differential(ray_session):
    """token_burstiness == python brute force; a clumped token beats
    an evenly spread one of equal total count."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import token_burstiness

    docs = []
    for i in range(60):
        words = ["filler", "common"]
        if i < 6:
            words.extend(["clumpy"] * 10)  # 60 occ in 6 docs
        if i % 1 == 0:
            words.append("spread")  # 60 occ in 60 docs
        docs.append(" ".join(words))
    t = pa.table(
        {
            "doc_id": pa.array(range(60), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )
    got = token_burstiness(
        ray.data.from_arrow(t).repartition(4),
        min_df=5,
        k=10,
        n_buckets=4,
    ).to_pandas()
    df_map, occ_map = {}, {}
    for i, d in enumerate(docs):
        seen = set()
        for w in d.split():
            occ_map[w] = occ_map.get(w, 0) + 1
            seen.add(w)
        for w in seen:
            df_map[w] = df_map.get(w, 0) + 1
    rows = [
        (w, df_map[w], occ_map[w], occ_map[w] / df_map[w])
        for w in df_map
        if df_map[w] >= 5
    ]
    rows.sort(key=lambda r: (-r[3], r[0]))
    assert got["tok"].tolist() == [r[0] for r in rows[:10]]
    assert got["burst"].tolist() == [r[3] for r in rows[:10]]
    assert got["tok"][0] == "clumpy"


def test_mmr_select_differential(ray_session):
    """mmr_select == python greedy brute force; the diversity penalty
    must displace the query's nearest (redundant) neighbors."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.similarity import mmr_select

    rng = np.random.default_rng(5)
    base = rng.normal(size=(4, 16))
    vecs, ids = [], []
    for i in range(120):
        # four tight clusters: plain top-k would pick one cluster
        v = base[i % 4] + rng.normal(scale=0.05, size=16)
        vecs.append(v)
        ids.append(i)
    mat = np.array(vecs, np.float64)
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs], pa.list_(pa.float64())
            ),
        }
    )
    got = mmr_select(
        ray.data.from_arrow(t).repartition(5),
        query_id=0,
        k=8,
        lam=0.3,
        mu=0.7,
    ).to_pandas()
    # brute force greedy
    q = mat[0]
    norms = np.sqrt((mat * mat).sum(axis=1))
    simq = (mat @ q) / (norms * np.sqrt(q @ q))
    selected = []
    for _ in range(8):
        best = None
        for i in range(len(mat)):
            if i in selected:
                continue
            pen = max(
                (
                    float(mat[i] @ mat[s])
                    / (norms[i] * norms[s])
                    for s in selected
                ),
                default=0.0,
            )
            sc = 0.3 * simq[i] - 0.7 * pen
            if best is None or (sc, -i) > best[:2]:
                best = (sc, -i, i)
        selected.append(best[2])
    assert got["vec_id"].tolist() == selected
    assert got["rnk"].tolist() == list(range(1, 9))
    # diversity: all four clusters appear in the first four picks
    assert {s % 4 for s in selected[:4]} == {0, 1, 2, 3}


def test_mmr_oracle_sql_matches_engine(ray_session):
    """The generated unrolled SQL returns the same selection as the
    engine on a random corpus."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.similarity import (
        mmr_oracle_sql,
        mmr_select,
    )

    rng = np.random.default_rng(19)
    mat = rng.normal(size=(200, 12))
    t = pa.table(
        {
            "vec_id": pa.array(range(200), pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in mat], pa.list_(pa.float32())
            ),
        }
    )
    got = mmr_select(
        ray.data.from_arrow(t).repartition(4), query_id=7, k=6
    ).to_pandas()
    con = duckdb.connect()
    con.register("embeddings", t.to_pandas())
    want = con.execute(mmr_oracle_sql(query_id=7, k=6)).df()
    assert got["vec_id"].tolist() == want["vec_id"].tolist()


def test_alert_cooldown_differential(ray_session):
    """alert_cooldown == python greedy; suppressed events inside the
    cooldown never fire."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import alert_cooldown

    rng = np.random.default_rng(23)
    rows_t, rows_k = [], []
    for k in ("a", "b", "c"):
        ts = np.sort(
            rng.choice(
                np.arange(0, 1_000_000, dtype=np.int64),
                400,
                replace=False,
            )
        )
        rows_t.extend(ts.tolist())
        rows_k.extend([k] * len(ts))
    t = pa.table(
        {
            "event_type": pa.array(rows_k, pa.string()),
            "ts": pa.array(
                np.array(rows_t, np.int64), pa.timestamp("us")
            ),
        }
    )
    C = 37_000
    got = alert_cooldown(
        ray.data.from_arrow(t).repartition(6), cooldown_us=C
    ).to_pandas()
    for k in ("a", "b", "c"):
        ts = np.sort(
            np.array(
                [r for r, kk in zip(rows_t, rows_k) if kk == k],
                np.int64,
            )
        )
        fired = [int(ts[0])]
        for x in ts[1:]:
            if x >= fired[-1] + C:
                fired.append(int(x))
        sub = got[got["event_type"] == k]
        assert sub["alert_ts_us"].tolist() == fired
        assert sub["alert_idx"].tolist() == list(
            range(1, len(fired) + 1)
        )
        # every gap between consecutive alerts respects the cooldown
        assert (np.diff(fired) >= C).all()


def test_mase_seasonal_differential(ray_session):
    """mase_seasonal == python brute force with zero-fill; a planted
    periodic stream scores MASE << 1, a trend scores > 1."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import mase_seasonal

    w, p = 1000, 4
    rows_t, rows_k = [], []
    rng = np.random.default_rng(3)
    # periodic: counts cycle 1,5,9,2 per window over 40 windows
    pat = [1, 5, 9, 2]
    for win in range(40):
        c = pat[win % p]
        rows_t.extend(
            (win * w + rng.integers(0, w, c)).tolist()
        )
        rows_k.extend(["periodic"] * c)
    # trending: count == win
    for win in range(40):
        rows_t.extend(
            (win * w + rng.integers(0, w, win + 1)).tolist()
        )
        rows_k.extend(["trend"] * (win + 1))
    rows_t.extend([0, 39 * w + 999])  # pin the span on both keys
    rows_k.extend(["periodic", "trend"])
    t = pa.table(
        {
            "event_type": pa.array(rows_k, pa.string()),
            "ts": pa.array(
                np.array(rows_t, np.int64), pa.timestamp("us")
            ),
        }
    )
    got = (
        mase_seasonal(
            ray.data.from_arrow(t).repartition(5),
            window_us=w,
            period=p,
        )
        .to_pandas()
        .set_index("event_type")
    )
    n = 40
    for k in ("periodic", "trend"):
        mask = [kk == k for kk in rows_k]
        ts = np.array(
            [r for r, m in zip(rows_t, mask) if m], np.int64
        )
        c = np.bincount(ts // w, minlength=n).astype(np.int64)
        num = int(np.abs(c[p:] - c[:-p]).sum())
        den = int(np.abs(c[1:] - c[:-1]).sum())
        row = got.loc[k]
        assert row["n_windows"] == n
        assert row["sae_seasonal"] == num
        assert row["sae_naive"] == den
        assert row["mase"] == float(num * (n - 1)) / float(
            den * (n - p)
        )
    assert got.loc["periodic", "mase"] < 0.5
    assert got.loc["trend", "mase"] > 1.0


def test_ols_trend_differential(ray_session):
    """ols_trend == numpy polyfit-grade brute force; a planted linear
    drift is recovered with r2 near 1."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import ols_trend

    rng = np.random.default_rng(31)
    day_us = 1000
    rows_t, rows_k, rows_v = [], [], []
    for k, slope in (("up", 3.0), ("flat", 0.0)):
        for _ in range(3000):
            t = int(rng.integers(0, 50 * day_us))
            v = 100.0 + slope * (t // day_us) + rng.uniform(-1, 1)
            rows_t.append(t)
            rows_k.append(k)
            rows_v.append(v)
    rows_t.append(0)  # pin the global min
    rows_k.append("up")
    rows_v.append(100.0)
    t = pa.table(
        {
            "event_type": pa.array(rows_k, pa.string()),
            "ts": pa.array(
                np.array(rows_t, np.int64), pa.timestamp("us")
            ),
            "value": pa.array(rows_v, pa.float64()),
        }
    )
    got = (
        ols_trend(
            ray.data.from_arrow(t).repartition(7), day_us=day_us
        )
        .to_pandas()
        .set_index("event_type")
    )
    for k in ("up", "flat"):
        mask = np.array([kk == k for kk in rows_k])
        days = (np.array(rows_t)[mask] // day_us).astype(np.int64)
        cents = np.floor(np.array(rows_v)[mask] * 100).astype(
            np.int64
        )
        n = int(mask.sum())
        st, sv = int(days.sum()), int(cents.sum())
        stv = int((days * cents).sum())
        st2 = int((days * days).sum())
        sv2 = int((cents * cents).sum())
        num = n * stv - st * sv
        denx = n * st2 - st * st
        deny = n * sv2 - sv * sv
        row = got.loc[k]
        assert row["n"] == n
        assert row["slope_cents_per_day"] == float(num) / float(denx)
        assert row["r2"] == float(num) * float(num) / (
            float(denx) * float(deny)
        )
    assert abs(got.loc["up", "slope_cents_per_day"] - 300) < 15
    assert got.loc["up", "r2"] > 0.95
    assert abs(got.loc["flat", "slope_cents_per_day"]) < 15


def test_degree_assortativity_differential(ray_session):
    """degree_assortativity == python brute force; a star graph is
    maximally disassortative."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.graph import (
        degree_assortativity,
    )

    # star 0-(1..8) plus a triangle 10-11-12
    edges = [(0, i) for i in range(1, 9)] + [
        (10, 11),
        (10, 12),
        (11, 12),
    ]
    t = pa.table(
        {
            "a": pa.array([a for a, _ in edges], pa.int64()),
            "b": pa.array([b for _, b in edges], pa.int64()),
        }
    )
    got = degree_assortativity(
        ray.data.from_arrow(t).repartition(3)
    ).to_pandas()
    deg = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    xs = []
    for a, b in edges:
        xs.append((deg[a], deg[b]))
        xs.append((deg[b], deg[a]))
    m = len(xs)
    sx = sum(x for x, _ in xs)
    sxy = sum(x * y for x, y in xs)
    sx2 = sum(x * x for x, _ in xs)
    r = float(m * sxy - sx * sx) / float(m * sx2 - sx * sx)
    row = got.iloc[0]
    assert row["n_directed_edges"] == m
    assert row["sum_deg"] == sx
    assert row["sum_xy"] == sxy
    assert row["sum_x2"] == sx2
    assert row["assortativity"] == r
    assert r < 0  # star dominates: disassortative


def test_association_rules_differential(ray_session):
    """association_rules == python brute force; a planted always-
    together pair tops the lift ranking."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.graph import association_rules

    rng = np.random.default_rng(67)
    rows_g, rows_i = [], []
    for g in range(300):
        items = set(rng.choice(50, rng.integers(2, 6), replace=False))
        if g % 30 == 0:
            items |= {100, 101}  # planted pair, rare singletons
        for i in items:
            rows_g.append(g)
            rows_i.append(int(i))
            # duplicate membership rows must not inflate support
            if g % 7 == 0:
                rows_g.append(g)
                rows_i.append(int(i))
    t = pa.table(
        {
            "g": pa.array(rows_g, pa.int64()),
            "i": pa.array(rows_i, pa.int64()),
        }
    )
    got = association_rules(
        ray.data.from_arrow(t).repartition(6),
        "g",
        "i",
        min_support=2,
        k=20,
        n_buckets=8,
    ).to_pandas()
    # brute force
    baskets = {}
    for g, i in zip(rows_g, rows_i):
        baskets.setdefault(g, set()).add(i)
    ng = len(baskets)
    ic, pc_ = {}, {}
    for items in baskets.values():
        for i in items:
            ic[i] = ic.get(i, 0) + 1
        s = sorted(items)
        for x in range(len(s)):
            for y in range(x + 1, len(s)):
                pc_[(s[x], s[y])] = pc_.get((s[x], s[y]), 0) + 1
    rows = []
    for (a, b), cab in pc_.items():
        if cab >= 2:
            rows.append(
                (
                    a,
                    b,
                    cab,
                    float(ng * cab) / float(ic[a] * ic[b]),
                )
            )
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    top = rows[:20]
    assert got["a"].tolist() == [r[0] for r in top]
    assert got["b"].tolist() == [r[1] for r in top]
    assert got["support"].tolist() == [r[2] for r in top]
    assert got["lift"].tolist() == [r[3] for r in top]
    assert (got["a"][0], got["b"][0]) == (100, 101)


def test_markov_entropy_differential(ray_session):
    """markov_entropy == python brute force; a deterministic chain
    scores zero entropy, a uniform one scores ~ln(2)."""
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import markov_entropy

    rng = np.random.default_rng(83)
    rows_u, rows_t, rows_s = [], [], []
    # user block 1: deterministic A->B->A->B
    for u in range(20):
        for j in range(50):
            rows_u.append(u)
            rows_t.append(j * 100 + u)
            rows_s.append("A" if j % 2 == 0 else "B")
    # user block 2: C followed by coin-flip C/D
    for u in range(100, 120):
        for j in range(50):
            rows_u.append(u)
            rows_t.append(j * 100 + u)
            rows_s.append("C" if j == 0 else rng.choice(["C", "D"]))
    t = pa.table(
        {
            "user_id": pa.array(rows_u, pa.int64()),
            "ts": pa.array(
                np.array(rows_t, np.int64), pa.timestamp("us")
            ),
            "event_type": pa.array(rows_s, pa.string()),
        }
    )
    got = (
        markov_entropy(ray.data.from_arrow(t).repartition(6))
        .to_pandas()
        .set_index("from_state")
    )
    # brute force
    trans = {}
    seqs = {}
    for u, tt, s in zip(rows_u, rows_t, rows_s):
        seqs.setdefault(u, []).append((tt, s))
    for u, seq in seqs.items():
        seq.sort()
        for (_, f), (_, nx) in zip(seq, seq[1:]):
            trans.setdefault(f, {})[nx] = (
                trans.setdefault(f, {}).get(nx, 0) + 1
            )
    for f, m in trans.items():
        cf = sum(m.values())
        hq = -sum(
            n
            * math.floor(
                (math.log(float(n)) - math.log(float(cf))) * 1e6
            )
            for n in m.values()
        )
        row = got.loc[f]
        assert row["n_from"] == cf
        assert row["h_q"] == hq
        assert row["h_nats"] == float(hq) / float(1_000_000 * cf)
    assert got.loc["A", "h_nats"] < 1e-5  # deterministic
    assert abs(got.loc["C", "h_nats"] - math.log(2)) < 0.1
    assert abs(got.loc["D", "h_nats"] - math.log(2)) < 0.1


def test_bursty_users_differential(ray_session):
    """bursty_users == python brute force incl. empty windows; a
    one-burst user dominates a uniform one."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import bursty_users

    w = 1000
    rows_u, rows_t = [], []
    # user 1 uniform (2/window over 50 windows), user 2 bursty
    rows_u += [1] * 100
    rows_t += list(range(0, 50_000, 500))
    rows_u += [2] * 101
    rows_t += list(range(200, 300)) + [49_999]
    t = pa.table(
        {
            "user_id": pa.array(rows_u, pa.int64()),
            "ts": pa.array(
                np.array(rows_t, np.int64), pa.timestamp("us")
            ),
        }
    )
    got = bursty_users(
        ray.data.from_arrow(t).repartition(4),
        window_us=w,
        min_events=20,
        k=10,
    ).to_pandas()
    mn, mx = 0, 49_999
    n = (mx - mn) // w + 1
    rows = []
    for u in (1, 2):
        ts = np.array(
            [tt for uu, tt in zip(rows_u, rows_t) if uu == u],
            np.int64,
        )
        c = np.bincount((ts - mn) // w, minlength=n).astype(np.int64)
        s1, s2 = int(c.sum()), int((c * c).sum())
        rows.append((u, s1, float(n * s2 - s1 * s1) / float(n * s1)))
    rows.sort(key=lambda r: (-r[2], r[0]))
    assert got["user_id"].tolist() == [r[0] for r in rows]
    assert got["n_events"].tolist() == [r[1] for r in rows]
    assert got["fano"].tolist() == [r[2] for r in rows]
    assert got["user_id"][0] == 2


def test_bot_regularity_differential(ray_session):
    """bot_regularity == python brute force; a metronomic user ranks
    above a heavy-tailed one."""
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import bot_regularity

    rng = np.random.default_rng(7)
    rows_u, rows_t = [], []
    rows_u += [5] * 60  # bot: exactly every 10s
    rows_t += (np.arange(60, dtype=np.int64) * 10_000_000).tolist()
    rows_u += [9] * 60  # human-ish: lognormal gaps
    rows_t += np.cumsum(
        (rng.lognormal(16, 1.0, 60)).astype(np.int64) + 1
    ).tolist()
    t = pa.table(
        {
            "user_id": pa.array(rows_u, pa.int64()),
            "ts": pa.array(
                np.array(rows_t, np.int64), pa.timestamp("us")
            ),
        }
    )
    got = bot_regularity(
        ray.data.from_arrow(t).repartition(4),
        min_gaps=20,
        k=10,
        n_buckets=4,
    ).to_pandas()
    rows = []
    for u in (5, 9):
        ts = np.sort(
            np.array(
                [tt for uu, tt in zip(rows_u, rows_t) if uu == u],
                np.int64,
            )
        )
        gaps = np.diff(ts) // 1_000_000
        n = len(gaps)
        s1, s2 = int(gaps.sum()), int((gaps * gaps).sum())
        rows.append(
            (u, n, math.sqrt(float(n * s2 - s1 * s1)) / float(s1))
        )
    rows.sort(key=lambda r: (r[2], r[0]))
    assert got["user_id"].tolist() == [r[0] for r in rows]
    assert got["n_gaps"].tolist() == [r[1] for r in rows]
    assert got["cv"].tolist() == [r[2] for r in rows]
    assert got["user_id"][0] == 5 and got["cv"][0] < 0.01


def test_wilson_ctr_differential(ray_session):
    """wilson_ctr == python brute force; 2/2 must NOT outrank
    16/20."""
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import wilson_ctr

    rows_u, rows_t = [], []
    # user 1: 16 clicks / 4 views; user 2: 24 clicks / 1 view;
    # user 3: all views
    for u, c, v in ((1, 16, 4), (2, 24, 1), (3, 0, 25)):
        rows_u += [u] * (c + v)
        rows_t += ["click"] * c + ["view"] * v
    t = pa.table(
        {
            "user_id": pa.array(rows_u, pa.int64()),
            "event_type": pa.array(rows_t, pa.string()),
        }
    )
    got = wilson_ctr(
        ray.data.from_arrow(t).repartition(4), min_n=20, k=10
    ).to_pandas()
    rows = []
    for u, c, v in ((1, 16, 4), (2, 24, 1), (3, 0, 25)):
        n = c + v
        p = c / n
        wlb = (
            p
            + 1.96 * 1.96 / (2.0 * n)
            - 1.96
            * math.sqrt((p * (1.0 - p) + 1.96 * 1.96 / (4.0 * n)) / n)
        ) / (1.0 + 1.96 * 1.96 / n)
        rows.append((u, c, v, p, wlb))
    rows.sort(key=lambda r: (-r[4], r[0]))
    assert got["user_id"].tolist() == [r[0] for r in rows]
    assert got["wilson_lb"].tolist() == [r[4] for r in rows]
    assert got["user_id"][0] == 2
    # the zero-click user's bound is pinned at ~0
    assert got.set_index("user_id").loc[3, "wilson_lb"] < 0.01


def test_target_encode_differential(ray_session):
    """target_encode == python brute force; a tiny category shrinks
    to the prior, a huge one keeps its mean."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import target_encode

    rng = np.random.default_rng(3)
    cats = ["big"] * 5000 + ["tiny"] * 3
    vals = np.concatenate(
        [rng.uniform(10, 11, 5000), np.array([500.0, 510.0, 520.0])]
    )
    t = pa.table(
        {
            "event_type": pa.array(cats, pa.string()),
            "value": pa.array(vals, pa.float64()),
        }
    )
    got = (
        target_encode(
            ray.data.from_arrow(t).repartition(5), smoothing=50
        )
        .to_pandas()
        .set_index("category")
    )
    cents = np.floor(vals * 100).astype(np.int64)
    sg, ng = int(cents.sum()), len(cents)
    gm = float(sg) / float(ng)
    for cat in ("big", "tiny"):
        mask = np.array([c == cat for c in cats])
        s, n = int(cents[mask].sum()), int(mask.sum())
        enc = (float(s) + 50.0 * gm) / (float(n) + 50.0)
        row = got.loc[cat]
        assert row["n"] == n and row["sum_cents"] == s
        assert row["enc_cents"] == enc
    # the 3-row category lands near the prior, far from its raw mean
    assert abs(got.loc["tiny", "enc_cents"] - gm * 1.0) < 3500
    assert got.loc["tiny", "enc_cents"] < 51000 / 10
    assert abs(got.loc["big", "enc_cents"] - 1050) < 20


def test_time_to_convert_differential(ray_session):
    """time_to_convert == python brute force; pre-signup purchases
    never count and non-converters drop out."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import time_to_convert

    rows = [
        # u1: signup at 10d, purchase before (ignored) and at 12d
        (1, 5, "purchase"),
        (1, 10, "signup"),
        (1, 12, "purchase"),
        (1, 20, "purchase"),
        # u2: signup at 1d, never purchases
        (2, 1, "signup"),
        (2, 3, "click"),
        # u3: two signups (first wins), purchase at 30d
        (3, 8, "signup"),
        (3, 9, "signup"),
        (3, 30, "purchase"),
        # u4: purchase only -> no signup, drops out
        (4, 2, "purchase"),
    ]
    day = 86_400_000_000
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                np.array([r[1] * day for r in rows], np.int64),
                pa.timestamp("us"),
            ),
            "event_type": pa.array(
                [r[2] for r in rows], pa.string()
            ),
        }
    )
    got = (
        time_to_convert(
            ray.data.from_arrow(t).repartition(3), n_buckets=4
        )
        .to_pandas()
        .sort_values("delta_days")
        .reset_index(drop=True)
    )
    # u1: cohort (10d-1d)//7d = 1, delta 2; u3: cohort (8-1)//7 = 1,
    # delta 22
    assert len(got) == 2
    assert got["delta_days"].tolist() == [2, 22]
    assert got["cohort_week"].tolist() == [1, 1]


def test_rfm_segments_differential(ray_session):
    """rfm_segments == python brute force with percentile_disc
    tercile edges."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import rfm_segments

    rng = np.random.default_rng(29)
    rows_u, rows_t, rows_e, rows_v = [], [], [], []
    day = 86_400_000_000
    for u in range(60):
        n_ev = int(rng.integers(1, 40))
        for _ in range(n_ev):
            rows_u.append(u)
            rows_t.append(int(rng.integers(0, 30 * day)))
            is_p = rng.random() < 0.3
            rows_e.append("purchase" if is_p else "view")
            rows_v.append(float(rng.uniform(1, 200)) if is_p else None)
    t = pa.table(
        {
            "user_id": pa.array(rows_u, pa.int64()),
            "ts": pa.array(
                np.array(rows_t, np.int64), pa.timestamp("us")
            ),
            "event_type": pa.array(rows_e, pa.string()),
            "value": pa.array(rows_v, pa.float64()),
        }
    )
    got = rfm_segments(
        ray.data.from_arrow(t).repartition(5)
    ).to_pandas()
    # brute force
    mx = max(rows_t)
    prof = {}
    for u, tt, e, v in zip(rows_u, rows_t, rows_e, rows_v):
        r = prof.setdefault(u, {"last": 0, "f": 0, "m": 0})
        r["last"] = max(r["last"], tt)
        r["f"] += 1
        if e == "purchase" and v is not None:
            r["m"] += int(np.floor(v * 100))
    users = sorted(prof)
    n = len(users)
    cols = {
        "r": [(mx - prof[u]["last"]) // day for u in users],
        "f": [prof[u]["f"] for u in users],
        "m": [prof[u]["m"] for u in users],
    }
    edges = {}
    for k, vals in cols.items():
        sv = sorted(vals)
        edges[k] = [
            sv[(i * n + 2) // 3 - 1] for i in (1, 2)
        ]  # smallest value with cum >= ceil(i*n/3)
    seg = {}
    for i, u in enumerate(users):
        key = tuple(
            sum(1 for e in edges[k] if e < cols[k][i])
            for k in ("r", "f", "m")
        )
        seg[key] = seg.get(key, 0) + 1
    want = sorted((k[0], k[1], k[2], v) for k, v in seg.items())
    gl = list(
        zip(
            got["r_bucket"],
            got["f_bucket"],
            got["m_bucket"],
            got["n_users"],
        )
    )
    assert gl == want


def test_bounce_rate_differential(ray_session):
    """bounce_rate == python brute force; sessions split only at
    gaps > gap_us and user boundaries."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import bounce_rate

    G = 1000
    rows = [
        # u1: [0, 500, 900] one session, then [5000] bounce
        (1, 0),
        (1, 500),
        (1, 900),
        (1, 5000),
        # u2: single event -> bounce
        (2, 42),
        # u3: exactly-G gap does NOT split (> rule)
        (3, 0),
        (3, 1000),
        # u4: G+1 gap splits into two bounces
        (4, 0),
        (4, 1001),
    ]
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                np.array([r[1] for r in rows], np.int64),
                pa.timestamp("us"),
            ),
        }
    )
    got = bounce_rate(
        ray.data.from_arrow(t).repartition(3),
        gap_us=G,
        n_buckets=4,
    ).to_pandas()
    # sessions: u1 x2 (one bounce), u2 x1 (bounce), u3 x1 (no
    # bounce), u4 x2 (two bounces) = 6 sessions, 4 bounces
    assert got["n_sessions"][0] == 6
    assert got["n_bounced"][0] == 4
    assert got["bounce_rate"][0] == 4.0 / 6.0


def test_revenue_concentration_differential(ray_session):
    """revenue_concentration == python brute force; a planted whale
    takes most of the share."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        revenue_concentration,
    )

    rng = np.random.default_rng(59)
    ks, vs = [], []
    for k in range(200):
        for _ in range(int(rng.integers(1, 4))):
            ks.append(k)
            vs.append(float(rng.uniform(10, 100)))
    ks += [999] * 5
    vs += [100000.0] * 5  # whale
    t = pa.table(
        {
            "o_custkey": pa.array(ks, pa.int64()),
            "o_totalprice": pa.array(vs, pa.float64()),
        }
    )
    got = revenue_concentration(
        ray.data.from_arrow(t).repartition(5), q=0.99
    ).to_pandas()
    rev = {}
    for k, v in zip(ks, vs):
        rev[k] = rev.get(k, 0) + int(round(v * 100))
    vals = sorted(rev.values())
    n = len(vals)
    thr = vals[int(np.ceil(0.99 * n)) - 1]
    top = sum(v for v in vals if v >= thr)
    total = sum(vals)
    row = got.iloc[0]
    assert row["n_customers"] == n
    assert row["thr_cents"] == thr
    assert row["top_cents"] == top
    assert row["total_cents"] == total
    assert row["share"] == float(top) / float(total)
    assert row["share"] > 0.9  # the whale dominates


def test_js_divergence_differential(ray_session):
    """js_divergence == python brute force; identical halves score
    ~0, a planted shift scores large but <= ln 2."""
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import js_divergence

    rng = np.random.default_rng(101)
    n = 8000
    ts = np.sort(rng.integers(0, 10_000_000, n))
    mid = (int(ts.min()) + int(ts.max())) // 2
    vals = rng.normal(20, 3, n)
    vals[ts >= mid] += 25.0  # near-disjoint halves
    t = pa.table(
        {
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(vals, pa.float64()),
        }
    )
    got = js_divergence(
        ray.data.from_arrow(t).repartition(5)
    ).to_pandas()
    cents = np.floor(vals * 100).astype(np.int64)
    am, bm = {}, {}
    for c, tt in zip(cents, ts):
        m = bm if tt >= mid else am
        m[int(c)] = m.get(int(c), 0) + 1
    A, B = sum(am.values()), sum(bm.values())
    qa = qb = 0
    for v in set(am) | set(bm):
        a, b = am.get(v, 0), bm.get(v, 0)
        if a > 0:
            qa += a * math.floor(
                (math.log(2 * a * B) - math.log(a * B + b * A))
                * 1e6
            )
        if b > 0:
            qb += b * math.floor(
                (math.log(2 * b * A) - math.log(b * A + a * B))
                * 1e6
            )
    row = got.iloc[0]
    assert row["n_ref"] == A and row["n_cur"] == B
    assert row["js_q_ref"] == qa and row["js_q_cur"] == qb
    js = 0.5 * (qa / (1e6 * A)) + 0.5 * (qb / (1e6 * B))
    assert abs(row["js_nats"] - js) < 1e-12
    assert 0.6 < row["js_nats"] <= math.log(2) + 1e-9


def test_ttr_by_source_differential(ray_session):
    """ttr_by_source == python brute force; a repetitive source pins
    a lower TTR than a diverse one."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import ttr_by_source

    rng = np.random.default_rng(13)
    docs, srcs = [], []
    for i in range(80):
        docs.append("spam spam spam eggs")
        srcs.append("boiler")
    for i in range(80):
        docs.append(" ".join(f"u{i}_{j}" for j in range(4)))
        srcs.append("diverse")
    docs.append("null source doc")
    srcs.append(None)
    t = pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "text": pa.array(docs, pa.string()),
        }
    )
    got = (
        ttr_by_source(
            ray.data.from_arrow(t).repartition(5), n_buckets=8
        )
        .to_pandas()
        .set_index("source")
    )
    occ, typ = {}, {}
    for s, d in zip(srcs, docs):
        s = s or ""
        for w in d.split():
            occ[s] = occ.get(s, 0) + 1
        typ.setdefault(s, set()).update(d.split())
    for s in ("boiler", "diverse", ""):
        row = got.loc[s]
        assert row["n_tokens"] == occ[s]
        assert row["n_types"] == len(typ[s])
        assert row["ttr"] == len(typ[s]) / occ[s]
    assert (
        got.loc["diverse", "ttr"] > 10 * got.loc["boiler", "ttr"]
    )


def test_session_duration_quantiles_differential(ray_session):
    """session_duration_quantiles == python brute force with the
    same percentile_disc rule."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        session_duration_quantiles,
    )

    rng = np.random.default_rng(43)
    G = 10_000_000  # 10s gap rule
    rows_u, rows_t = [], []
    for u in range(40):
        t = 0
        for _ in range(int(rng.integers(2, 30))):
            t += int(rng.integers(1, 20_000_000))
            rows_u.append(u)
            rows_t.append(t)
    t = pa.table(
        {
            "user_id": pa.array(rows_u, pa.int64()),
            "ts": pa.array(
                np.array(rows_t, np.int64), pa.timestamp("us")
            ),
        }
    )
    got = session_duration_quantiles(
        ray.data.from_arrow(t).repartition(5),
        gap_us=G,
        n_buckets=8,
    ).to_pandas()
    durs = []
    seqs = {}
    for u, tt in zip(rows_u, rows_t):
        seqs.setdefault(u, []).append(tt)
    for u, ts_list in seqs.items():
        ts_list.sort()
        start = prev = ts_list[0]
        for x in ts_list[1:]:
            if x - prev > G:
                durs.append((prev - start) // 1_000_000)
                start = x
            prev = x
        durs.append((prev - start) // 1_000_000)
    durs.sort()
    n = len(durs)
    row = got.iloc[0]
    assert row["n_sessions"] == n
    assert row["p50_secs"] == float(
        durs[int(np.ceil(0.5 * n)) - 1]
    )
    assert row["p95_secs"] == float(
        durs[int(np.ceil(0.95 * n)) - 1]
    )


def test_chapman_estimate_differential(ray_session):
    """chapman_estimate == python brute force; full overlap recovers
    ~the observed population, disjoint halves blow the estimate up."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import chapman_estimate

    rows_u, rows_t = [], []
    # 30 users seen in both halves, 10 only first, 10 only second
    for u in range(30):
        rows_u += [u, u]
        rows_t += [100 + u, 9000 + u]
    for u in range(100, 110):
        rows_u.append(u)
        rows_t.append(200 + u)
    for u in range(200, 210):
        rows_u.append(u)
        rows_t.append(9100 + u)
    rows_u += [999, 998]
    rows_t += [0, 10000]  # pin the span
    t = pa.table(
        {
            "user_id": pa.array(rows_u, pa.int64()),
            "ts": pa.array(
                np.array(rows_t, np.int64), pa.timestamp("us")
            ),
        }
    )
    got = chapman_estimate(
        ray.data.from_arrow(t).repartition(4)
    ).to_pandas()
    mid = (0 + 10000) // 2
    a_set = {u for u, tt in zip(rows_u, rows_t) if tt < mid}
    b_set = {u for u, tt in zip(rows_u, rows_t) if tt >= mid}
    n1, n2, m = len(a_set), len(b_set), len(a_set & b_set)
    row = got.iloc[0]
    assert row["n_first"] == n1
    assert row["n_second"] == n2
    assert row["n_both"] == m
    assert row["chapman_n"] == float((n1 + 1) * (n2 + 1)) / float(
        m + 1
    ) - 1.0
    # with strong overlap the estimate sits near the true 52
    assert 45 < row["chapman_n"] < 65


def test_dow_hour_counts_differential(ray_session):
    """dow_hour_counts == python brute force epoch arithmetic."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import dow_hour_counts

    rng = np.random.default_rng(17)
    ts = rng.integers(0, 40 * 86_400_000_000, 5000)
    t = pa.table(
        {"ts": pa.array(ts.astype(np.int64), pa.timestamp("us"))}
    )
    got = (
        dow_hour_counts(ray.data.from_arrow(t).repartition(5))
        .to_pandas()
        .set_index(["dow", "hour"])["n"]
        .to_dict()
    )
    want = {}
    for x in ts:
        days = x // 86_400_000_000
        dow = (days + 4) % 7
        hour = (x % 86_400_000_000) // 3_600_000_000
        want[(dow, hour)] = want.get((dow, hour), 0) + 1
    assert got == want


def test_group_quantiles_hist_matches_row_path(ray_session):
    """The histogram (bounded-state) quantile path must be
    bit-identical to the row-shuffle group_quantiles on a discrete
    value column."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        group_quantiles,
        group_quantiles_hist,
    )

    rng = np.random.default_rng(11)
    rows = [
        {"g": ["x", "y", "z"][int(i % 3)], "value": float(v)}
        for i, v in enumerate(rng.integers(0, 40, 2000))
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(7)
    want = {
        r["g"]: (r["p50"], r["p95"])
        for r in group_quantiles(ds, "g", "value", qs=(0.5, 0.95)).take_all()
    }
    h = group_quantiles_hist(ds, "g", "value", qs=(0.5, 0.95))
    got = {
        r["g"]: (r["p50"], r["p95"]) for r in h.to_pylist()
    }
    assert got == want


def test_association_rules_partials_path_matches(ray_session):
    """pair_count_partials over group-complete blocks +
    association_rules(partials=...) must equal the group-hash shuffle
    path exactly."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.graph import (
        association_rules,
        pair_count_partials,
    )

    rng = np.random.default_rng(5)
    rows = [
        {"g": int(g), "i": int(i)}
        for g, i in zip(
            rng.integers(0, 200, 4000), rng.integers(0, 12, 4000)
        )
    ]
    tbl = pa.Table.from_pylist(rows)
    ds = ray.data.from_arrow(tbl).repartition(6)
    want = association_rules(ds, "g", "i", min_support=2, k=20).to_pylist()

    # group-complete split: groups 0..99 and 100..199
    import pyarrow.compute as pc

    lo = tbl.filter(pc.less(tbl.column("g"), 100))
    hi = tbl.filter(pc.greater_equal(tbl.column("g"), 100))
    partials = ray.data.from_arrow(
        pa.concat_tables(
            [pair_count_partials(lo), pair_count_partials(hi)]
        )
    )
    got = association_rules(
        None, "g", "i", min_support=2, k=20, partials=partials
    ).to_pylist()
    assert got == want


def test_ensure_enriched_cache_and_conv_marker(ray_session, tmp_path):
    """ensure_enriched builds once, as the flagship's parsed sink: one
    conversation-complete file per transcript file, row-matching a
    live parse+enrich on every column; a column-pruned cached read
    returns only the asked-for columns.  The build writes no sink but
    the parsed one, and its manifests record only that."""
    import glob
    import json
    import os
    import shutil

    import pyarrow.parquet as pq

    from console_log_parser_ray.sources import cache

    sf = "sf0.001"  # the scale-factor name alone picks the cached corpus
    shutil.rmtree(cache.enriched_dir(sf), ignore_errors=True)
    p1 = cache.ensure_enriched(sf)
    done = os.path.join(cache.enriched_dir(sf), "_SUCCESS")
    assert p1 == os.path.join(cache.enriched_dir(sf), "sinks", "parsed")
    assert os.path.exists(done)
    mtime = os.path.getmtime(done)
    p2 = cache.ensure_enriched(sf)  # no rebuild
    assert p2 == p1
    assert os.path.getmtime(done) == mtime
    assert os.listdir(os.path.dirname(p1)) == ["parsed"]
    manifests = glob.glob(
        os.path.join(cache.enriched_dir(sf), "_manifest", "shard-*.json")
    )
    assert manifests
    for mf in manifests:
        with open(mf) as fh:
            assert list(json.load(fh)["sinks"]) == ["parsed"]

    files = sorted(glob.glob(os.path.join(p1, "**", "*.parquet"), recursive=True))
    n_in = len(glob.glob(os.path.join(cache.ensure_transcripts(sf), "*.parquet")))
    assert len(files) == n_in
    seen: set = set()
    for f in files:  # conversation-complete: no conv_id in two files
        convs = set(pq.read_table(f, columns=["conv_id"]).column(0).to_pylist())
        assert not seen & convs
        seen |= convs

    import __ray_entry__ as entry

    live = entry._enriched(sf).to_pandas()
    cached = entry._enriched_cached(sf, list(live.columns)).to_pandas()
    assert list(cached.columns) == list(live.columns)
    for col in (
        "tool_family", "chapter_title", "suppressed", "hop_to", "hop_label"
    ):
        assert col in live.columns
    key = ["conv_id", "turn_idx"]
    cached = cached.sort_values(key).reset_index(drop=True)
    live = live.sort_values(key).reset_index(drop=True)
    assert len(cached) == len(live) > 0
    for col in live.columns:
        assert cached[col].tolist() == live[col].tolist(), col

    pruned = entry._enriched_cached(sf, ["conv_id", "tool"])
    assert pruned.schema().names == ["conv_id", "tool"]
    assert pruned.count() == len(live)


def test_ensure_enriched_rebuilds_old_layout(ray_session):
    """A cache directory in the older flat layout (parquet files plus
    _SUCCESS at the top) is rebuilt, not misread."""
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from console_log_parser_ray.sources import cache

    sf = "sf0.001"
    out = cache.enriched_dir(sf)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    stale = os.path.join(out, "part-0.parquet")
    pq.write_table(pa.table({"conv_id": ["stale"]}), stale)
    with open(os.path.join(out, "_SUCCESS"), "w") as fh:
        fh.write("ok\n")

    path = cache.ensure_enriched(sf)
    assert path == os.path.join(out, "sinks", "parsed")
    assert not os.path.exists(stale)
    assert os.path.exists(os.path.join(out, "_SUCCESS"))
    import ray.data

    convs = set(
        ray.data.read_parquet(path, columns=["conv_id"]).to_pandas()["conv_id"]
    )
    assert "stale" not in convs and len(convs) == cache.SIZES["sf0.001"][0]


def test_hapax_by_source_differential(ray_session):
    """hapax_by_source == python brute force; a template source pins a
    near-zero hapax ratio, one-off prose pins a high one."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import hapax_by_source

    docs, srcs = [], []
    for i in range(60):
        docs.append("spam spam eggs eggs")
        srcs.append("boiler")
    for i in range(60):
        docs.append(" ".join(f"w{i}_{j}" for j in range(3)))
        srcs.append("fresh")
    docs.append("one two two")
    srcs.append(None)
    t = pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "text": pa.array(docs, pa.string()),
        }
    )
    got = (
        hapax_by_source(
            ray.data.from_arrow(t).repartition(5), n_buckets=8
        )
        .to_pandas()
        .set_index("source")
    )
    cnt: dict = {}
    for s, d in zip(srcs, docs):
        s = s or ""
        for w in d.split():
            cnt.setdefault(s, {})
            cnt[s][w] = cnt[s].get(w, 0) + 1
    for s in ("boiler", "fresh", ""):
        types = len(cnt[s])
        hapax = sum(1 for v in cnt[s].values() if v == 1)
        row = got.loc[s]
        assert row["n_types"] == types
        assert row["n_hapax"] == hapax
        assert row["hapax_ratio"] == hapax / types
    assert got.loc["fresh", "hapax_ratio"] == 1.0
    assert got.loc["boiler", "hapax_ratio"] == 0.0


def test_zipf_slope_differential(ray_session):
    """zipf_slope == python brute force on the same quantized-ln
    normal equations; a power-law corpus fits slope ~ -1."""
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import zipf_slope

    # freq(tok_r) ~ 1000 // r: an explicit Zipf corpus
    words = []
    for r in range(1, 41):
        words += [f"tok{r:03d}"] * (1000 // r)
    rng = np.random.default_rng(3)
    rng.shuffle(words)
    docs = [
        " ".join(words[i : i + 50]) for i in range(0, len(words), 50)
    ]
    ds = ray.data.from_arrow(
        pa.table({"text": pa.array(docs, pa.string())})
    ).repartition(4)
    got = zipf_slope(ds, k=25).to_pylist()[0]

    cnt: dict = {}
    for w in words:
        cnt[w] = cnt.get(w, 0) + 1
    top = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:25]
    n = len(top)
    sx = sy = sxy = sxx = syy = 0
    for rank, (_, f) in enumerate(top, start=1):
        x = math.floor(math.log(float(rank)) * 1_000_000.0)
        y = math.floor(math.log(float(f)) * 1_000_000.0)
        sx += x
        sy += y
        sxy += x * y
        sxx += x * x
        syy += y * y
    num, denx = n * sxy - sx * sy, n * sxx - sx * sx
    assert got["n_ranks"] == n
    assert got["slope"] == float(num) / float(denx)
    assert -1.2 < got["slope"] < -0.8


def test_turn_gap_and_duration_queries_match_duckdb(ray_session):
    """The two new per-conversation time queries match their oracle
    SQL at sf0.001 (same protocol as the driver)."""
    import duckdb
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry
    from console_log_parser_ray.sources import cache

    sf = "/root/testdata/sf0.001"
    glob_path = cache.transcripts_glob(sf)
    cache.ensure_transcripts(sf)
    q = entry.queries()
    sql = entry.oracle_sql()
    for name in ("turn_gap_by_role", "conv_duration_hist"):
        got = q[name](sf)
        import ray.data

        if isinstance(got, ray.data.Dataset):
            got = got.to_pandas()
        else:
            got = got.to_pandas()
        oracle = duckdb.sql(
            sql[name].replace(
                entry._SF001_GLOB, glob_path
            )
        ).df()
        got = got[sorted(got.columns)].sort_values(
            by=sorted(got.columns)
        ).reset_index(drop=True)
        oracle = oracle[sorted(oracle.columns)].sort_values(
            by=sorted(oracle.columns)
        ).reset_index(drop=True)
        assert len(got) == len(oracle), name
        import pandas as pd

        pd.testing.assert_frame_equal(
            got.astype(oracle.dtypes.to_dict()), oracle, check_exact=True
        )


def test_kendall_tau_b_differential(ray_session):
    """kendall_tau_b == the O(n^2) sign-product brute force on a
    tie-heavy random sample; both cardinality guards trip."""
    import numpy as np
    import pyarrow as pa
    import pytest

    import ray.data

    from console_log_parser_ray.stages.events import kendall_tau_b

    rng = np.random.default_rng(43)
    n = 1500
    x = rng.integers(0, 25, n)  # heavy ties
    y = 2 * x + rng.integers(-15, 15, n)
    xo, yo = x.astype(object), y.astype(object)
    xo[rng.random(n) < 0.02] = None
    yo[rng.random(n) < 0.02] = None
    t = pa.table(
        {
            "x": pa.array(list(xo), pa.int64()),
            "y": pa.array(list(yo), pa.int64()),
        }
    )
    got = kendall_tau_b(
        ray.data.from_arrow(t).repartition(5)
    ).to_pylist()[0]
    import pandas as pd

    df = pd.DataFrame({"x": xo, "y": yo}).dropna()
    xv = df["x"].to_numpy(dtype=np.int64)
    yv = df["y"].to_numpy(dtype=np.int64)
    dx = np.sign(xv[:, None] - xv[None, :])
    dy = np.sign(yv[:, None] - yv[None, :])
    prod = dx * dy
    iu = np.triu_indices(len(xv), k=1)
    conc = int((prod[iu] > 0).sum())
    disc = int((prod[iu] < 0).sum())
    nn = len(xv)
    n0 = nn * (nn - 1) // 2
    tx = sum(
        int(c) * (int(c) - 1) // 2
        for c in pd.Series(xv).value_counts()
    )
    ty = sum(
        int(c) * (int(c) - 1) // 2
        for c in pd.Series(yv).value_counts()
    )
    ref = (conc - disc) / np.sqrt(float(n0 - tx) * float(n0 - ty))
    assert got["n"] == nn
    assert got["conc"] == float(conc)
    assert got["disc"] == float(disc)
    assert got["ties_x"] == float(tx)
    assert got["ties_y"] == float(ty)
    assert abs(got["tau_b"] - ref) < 1e-12
    assert got["tau_b"] > 0.5  # planted monotone association
    with pytest.raises(ValueError, match="max_distinct"):
        kendall_tau_b(ray.data.from_arrow(t), max_distinct=10)
    with pytest.raises(ValueError, match="max_grid"):
        kendall_tau_b(ray.data.from_arrow(t), max_grid=4)


def test_cramers_v_differential(ray_session):
    """cramers_v == the float chi-square brute force over the
    crosstab (within the 1e-6 term quantization), planted
    association detected; the cell guard trips."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest

    import ray.data

    from console_log_parser_ray.stages.events import cramers_v

    rng = np.random.default_rng(7)
    n = 5000
    b = rng.integers(0, 7, n)
    # action depends on the weekday for two values -> association
    labels = np.array(["click", "view", "buy", "scroll"])
    a = labels[
        np.where(b >= 5, 0, rng.integers(0, 4, n))
    ]
    t = pa.table(
        {
            "a": pa.array(list(a), pa.string()),
            "b": pa.array(b, pa.int64()),
        }
    )
    tbl = cramers_v(
        ray.data.from_arrow(t).repartition(4)
    ).to_pandas()
    ct = pd.crosstab(pd.Series(a, name="a"), pd.Series(b, name="b"))
    obs = ct.to_numpy(dtype=float)
    rs = obs.sum(axis=1, keepdims=True)
    cs = obs.sum(axis=0, keepdims=True)
    exp = rs * cs / n
    # every r x c cell, absent ones (b >= 5 rows are all "click") too
    chi2_ref = float(((obs - exp) ** 2 / exp).sum())
    v_ref = np.sqrt(chi2_ref / (n * (min(ct.shape) - 1)))
    k = len(tbl)
    assert k == int((obs > 0).sum()) < obs.size
    assert (tbl["n"] == n).all()
    # k cell terms plus the absent mass, each floored to 1e-6
    assert abs(tbl["chi2"].iloc[0] - chi2_ref) < (k + 1) / 1e6 + 1e-9
    assert abs(tbl["v"].iloc[0] - v_ref) < 1e-4
    assert tbl["v"].iloc[0] > 0.2  # planted association
    # exact margins per cell
    row = tbl[(tbl["a"] == "click") & (tbl["b"] == 6)].iloc[0]
    assert row["o"] == int(ct.loc["click", 6])
    assert row["ra"] == int(ct.loc["click"].sum())
    assert row["cb"] == int(ct[6].sum())
    with pytest.raises(ValueError, match="max_cells"):
        cramers_v(ray.data.from_arrow(t), max_cells=3)


@pytest.mark.parametrize(
    "counts, v_exact",
    [
        # every cell populated
        ({("x", 0): 10, ("x", 1): 20, ("y", 0): 30, ("y", 1): 5}, None),
        # perfect association: the off-diagonal cells are absent, V = 1
        ({("x", 0): 40, ("y", 1): 25, ("z", 2): 35}, 1.0),
        # scattered empty cells in a 3 x 4 table
        (
            {
                ("x", 0): 12, ("x", 3): 7, ("y", 1): 9, ("y", 2): 4,
                ("y", 3): 1, ("z", 0): 3, ("z", 2): 15,
            },
            None,
        ),
    ],
)
def test_cramers_v_brute_force_all_cells(ray_session, counts, v_exact):
    """chi2 and V equal the textbook sum of (o - E)^2 / E over all
    r x c cells, empty ones included, in plain Python."""
    import math

    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import cramers_v

    rows = [k for k, c in counts.items() for _ in range(c)]
    t = pa.table(
        {
            "a": pa.array([a for a, _ in rows], pa.string()),
            "b": pa.array([b for _, b in rows], pa.int64()),
        }
    )
    got = cramers_v(ray.data.from_arrow(t).repartition(3)).to_pylist()

    n = len(rows)
    avals = sorted({a for a, _ in counts})
    bvals = sorted({b for _, b in counts})
    ra = {a: sum(c for (x, _), c in counts.items() if x == a) for a in avals}
    cb = {b: sum(c for (_, y), c in counts.items() if y == b) for b in bvals}
    chi2 = 0.0
    for a in avals:
        for b in bvals:
            e = ra[a] * cb[b] / n
            chi2 += (counts.get((a, b), 0) - e) ** 2 / e
    v = math.sqrt(chi2 / (n * (min(len(avals), len(bvals)) - 1)))

    assert len(got) == len(counts)
    assert abs(got[0]["chi2"] - chi2) < (len(counts) + 1) / 1e6
    assert abs(got[0]["v"] - v) < 1e-6
    if v_exact is not None:
        assert abs(got[0]["v"] - v_exact) < 1e-6


def test_theil_u_differential(ray_session):
    """theil_u == the float conditional-entropy brute force (within
    the micro-nat quantization) and is properly asymmetric."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import theil_u

    rng = np.random.default_rng(11)
    n = 4000
    b = rng.integers(0, 5, n)
    labels = np.array(["LOW", "MED", "HIGH"])
    # a is strongly predicted by b
    a = labels[(b + rng.integers(0, 2, n)) % 3]
    t = pa.table(
        {
            "a": pa.array(list(a), pa.string()),
            "b": pa.array(b, pa.int64()),
        }
    )
    tbl = theil_u(
        ray.data.from_arrow(t).repartition(4)
    ).to_pandas()
    df = pd.DataFrame({"a": a, "b": b})
    pa_m = df["a"].value_counts(normalize=True)
    ha = float(-(pa_m * np.log(pa_m)).sum())
    hab = 0.0
    for bv, sub in df.groupby("b"):
        pb = len(sub) / n
        pc_ = sub["a"].value_counts(normalize=True)
        hab += pb * float(-(pc_ * np.log(pc_)).sum())
    u_ref = (ha - hab) / ha
    assert abs(tbl["u"].iloc[0] - u_ref) < 1e-4
    assert 0.0 < tbl["u"].iloc[0] < 1.0
    # exact integer cell counts
    ct = pd.crosstab(df["a"], df["b"])
    row = tbl[(tbl["a"] == "LOW") & (tbl["b"] == 2)].iloc[0]
    assert row["o"] == int(ct.loc["LOW", 2])


def test_ewma_holt_differential(ray_session):
    """ewma_series / holt_linear == the pandas recursion bit-exactly
    (same IEEE expression per step); holt needs >= 2 buckets."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest

    import ray.data

    from console_log_parser_ray.stages.events import (
        ewma_series,
        holt_linear,
    )

    rng = np.random.default_rng(3)
    n = 3000
    day_us = 86_400_000_000
    ts = rng.integers(0, 90, n) * day_us + rng.integers(0, day_us, n)
    cents = rng.integers(100, 100_000, n)
    t = pa.table(
        {
            "ts": pa.array(ts, pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(5)
    got = ewma_series(ds, alpha=0.25).to_pandas()
    daily = (
        pd.DataFrame({"bucket": ts // day_us, "x": cents})
        .groupby("bucket")["x"]
        .sum()
        .sort_index()
    )
    assert list(got["bucket"]) == list(daily.index)
    assert list(got["x"]) == [int(v) for v in daily]
    s = None
    for x, g in zip(daily, got["ewma"]):
        xf = float(x)
        s = xf if s is None else 0.25 * xf + 0.75 * s
        assert g == s  # bit-exact
    wk = holt_linear(ds, alpha=0.5, beta=0.25, bucket_us=7 * day_us)
    wk = wk.to_pandas()
    weekly = (
        pd.DataFrame({"bucket": ts // (7 * day_us), "x": cents})
        .groupby("bucket")["x"]
        .sum()
        .sort_index()
    )
    xs = [float(v) for v in weekly]
    l_prev, b_prev = xs[0], xs[1] - xs[0]
    assert wk["level"].iloc[0] == l_prev
    assert wk["trend"].iloc[0] == b_prev
    assert pd.isna(wk["fitted"].iloc[0])
    for i, xf in enumerate(xs[1:], start=1):
        fitted = l_prev + b_prev
        l_new = 0.5 * xf + 0.5 * fitted
        b_new = 0.25 * (l_new - l_prev) + 0.75 * b_prev
        assert wk["fitted"].iloc[i] == fitted
        assert wk["resid"].iloc[i] == xf - fitted
        assert wk["level"].iloc[i] == l_new
        assert wk["trend"].iloc[i] == b_new
        l_prev, b_prev = l_new, b_new
    one = pa.table(
        {
            "ts": pa.array([1], pa.int64()),
            "cents": pa.array([5], pa.int64()),
        }
    )
    with pytest.raises(ValueError, match="2 buckets"):
        holt_linear(ray.data.from_arrow(one))


def test_gumbel_block_maxima_differential(ray_session):
    """gumbel_block_maxima == the numpy method-of-moments fit over
    the weekly maxima; needs >= 2 blocks."""
    import math

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest

    import ray.data

    from console_log_parser_ray.stages.events import (
        gumbel_block_maxima,
    )

    rng = np.random.default_rng(17)
    n = 4000
    wk_us = 7 * 86_400_000_000
    ts = rng.integers(0, 40, n) * wk_us + rng.integers(0, wk_us, n)
    cents = rng.integers(100, 1_000_000, n)
    t = pa.table(
        {
            "ts": pa.array(ts, pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        }
    )
    got = gumbel_block_maxima(
        ray.data.from_arrow(t).repartition(5)
    ).to_pylist()[0]
    weekly = (
        pd.DataFrame({"w": ts // wk_us, "x": cents})
        .groupby("w")["x"]
        .max()
    )
    xs = weekly.to_numpy(dtype=np.int64)
    k = len(xs)
    mean = xs.sum() / k
    var = float(
        k * int((xs.astype(object) ** 2).sum())
        - int(xs.sum()) ** 2
    ) / float(k * (k - 1))
    beta = math.sqrt(var) * (math.sqrt(6.0) / math.pi)
    mu = mean - 0.5772156649015329 * beta
    assert got["k"] == k
    assert got["s_x"] == float(xs.sum())
    assert abs(got["mean"] - mean) < 1e-9
    assert abs(got["var"] - var) < 1e-6 * abs(var)
    assert abs(got["beta"] - beta) < 1e-6 * abs(beta)
    assert abs(got["mu"] - mu) < 1e-6 * abs(mu)
    one = pa.table(
        {
            "ts": pa.array([0], pa.int64()),
            "cents": pa.array([5], pa.int64()),
        }
    )
    with pytest.raises(ValueError, match="2 blocks"):
        gumbel_block_maxima(ray.data.from_arrow(one))


def test_daily_xcorr_differential(ray_session):
    """daily_xcorr == numpy Pearson per lag on the joined daily
    series, with a planted lead-lag association."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import daily_xcorr

    rng = np.random.default_rng(23)
    day_us = 86_400_000_000
    days = np.arange(0, 80, dtype=np.int64)
    days = days[days % 11 != 0]  # gaps
    base = rng.integers(100, 5000, len(days))
    # series B echoes series A three days later
    ts_a = np.repeat(days * day_us, 3) + rng.integers(
        0, day_us, len(days) * 3
    )
    cents_a = np.repeat(base, 3)
    ta = pa.table(
        {
            "ts": pa.array(ts_a, pa.int64()),
            "cents": pa.array(cents_a, pa.int64()),
        }
    )
    ts_b = np.repeat((days + 3) * day_us, 2) + rng.integers(
        0, day_us, len(days) * 2
    )
    cents_b = np.repeat(base * 2 + rng.integers(0, 50, len(days)), 2)
    tb = pa.table(
        {
            "ts": pa.array(ts_b, pa.int64()),
            "cents": pa.array(cents_b, pa.int64()),
        }
    )
    got = daily_xcorr(
        ray.data.from_arrow(ta).repartition(4),
        ray.data.from_arrow(tb).repartition(3),
        agg_b="sum",
        val_b="cents",
    ).to_pandas()
    assert list(got["lag"]) == list(range(-7, 8))
    da = (
        pd.DataFrame({"d": ts_a // day_us, "x": cents_a})
        .groupby("d")["x"]
        .sum()
    )
    db = (
        pd.DataFrame({"d": ts_b // day_us, "x": cents_b})
        .groupby("d")["x"]
        .sum()
    )
    for lag in (-3, 0, 3):
        overlap = [
            (da[d], db[d + lag])
            for d in da.index
            if d + lag in db.index
        ]
        x = np.array([o[0] for o in overlap], dtype=float)
        y = np.array([o[1] for o in overlap], dtype=float)
        row = got[got["lag"] == lag].iloc[0]
        assert row["k"] == len(overlap)
        ref = float(np.corrcoef(x, y)[0, 1])
        assert abs(row["r"] - ref) < 1e-9
    # the planted echo peaks at lag +3
    assert got.set_index("lag")["r"].idxmax() == 3


def test_theil_sen_differential(ray_session):
    """theil_sen == the numpy pairwise-slope median (DuckDB (a+b)/2
    even rule) and shrugs off a planted outlier day."""
    import numpy as np
    import pyarrow as pa
    import pytest

    import ray.data

    from console_log_parser_ray.stages.events import theil_sen

    rng = np.random.default_rng(31)
    day_us = 86_400_000_000
    days = np.arange(0, 60, dtype=np.int64)
    vals = 1000 + 25 * days + rng.integers(-40, 40, len(days))
    vals[10] = 10_000_000  # rogue day
    ts = days * day_us + rng.integers(0, day_us, len(days))
    t = pa.table(
        {
            "ts": pa.array(ts, pa.int64()),
            "cents": pa.array(vals, pa.int64()),
        }
    )
    got = theil_sen(
        ray.data.from_arrow(t).repartition(4)
    ).to_pylist()[0]
    iu, ju = np.triu_indices(len(days), k=1)
    slopes = np.sort(
        (vals[ju] - vals[iu]).astype(float)
        / (days[ju] - days[iu]).astype(float)
    )
    m = len(slopes)
    ref = (
        float(slopes[m // 2])
        if m % 2
        else (float(slopes[m // 2 - 1]) + float(slopes[m // 2])) / 2.0
    )
    assert got["n_days"] == len(days)
    assert got["n_pairs"] == m
    assert got["slope"] == ref
    assert 20 < got["slope"] < 30  # outlier-immune trend
    with pytest.raises(ValueError, match="2 buckets"):
        theil_sen(
            ray.data.from_arrow(
                pa.table(
                    {
                        "ts": pa.array([1], pa.int64()),
                        "cents": pa.array([5], pa.int64()),
                    }
                )
            )
        )


def test_ppl_tercile_buckets_differential(ray_session):
    """ppl_tercile_buckets == a pandas brute force of the unigram LM
    scoring, truncating milli-nat division, and percentile_disc
    tercile split."""
    import math
    from collections import Counter

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import (
        ppl_tercile_buckets,
    )

    rng = np.random.default_rng(41)
    vocab = [f"w{i}" for i in range(60)]
    texts, srcs, ids = [], [], []
    for i in range(300):
        k = int(rng.integers(1, 20))
        # Zipf-flavored vocabulary so scores spread
        idx = np.minimum(
            rng.zipf(1.5, k) - 1, len(vocab) - 1
        ).astype(int)
        texts.append(" ".join(vocab[j] for j in idx))
        srcs.append(str(rng.choice(["s0", "s1", "s2"])))
        ids.append(i)
    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "source": pa.array(srcs, pa.string()),
        }
    )
    got = (
        ppl_tercile_buckets(ray.data.from_arrow(t).repartition(5))
        .to_pandas()
        .sort_values(["source", "bucket"])
        .reset_index(drop=True)
    )
    # brute force
    cnt: Counter = Counter()
    for txt in texts:
        cnt.update(txt.split())
    c_total = sum(cnt.values())
    scores = []
    for i, txt in enumerate(texts):
        toks = txt.split()
        lp = sum(
            math.floor(
                (math.log(float(cnt[w])) - math.log(float(c_total)))
                * 1e6
            )
            for w in toks
        )
        den = 1000 * len(toks)
        score = int(np.sign(lp)) * (abs(lp) // den)
        scores.append((srcs[i], score))
    rows = []
    df = pd.DataFrame(scores, columns=["source", "q"])
    for src, sub in df.groupby("source"):
        v = np.sort(sub["q"].to_numpy())
        n = len(v)
        cuts = []
        for qq in (1.0 / 3.0, 2.0 / 3.0):
            cuts.append(v[max(1, int(np.ceil(qq * n))) - 1])
        t33, t66 = cuts
        rows.append((src, "tail", int((v <= t33).sum())))
        rows.append(
            (src, "middle", int(((v > t33) & (v <= t66)).sum()))
        )
        rows.append((src, "head", int((v > t66).sum())))
    ref = (
        pd.DataFrame(rows, columns=["source", "bucket", "n_docs"])
        .query("n_docs > 0")
        .sort_values(["source", "bucket"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, ref)


def test_rake_keyphrases_differential(ray_session):
    """rake_keyphrases == a regex brute force of the RAKE pipeline
    (phrase split at stopwords/punctuation, deg/freq scoring)."""
    import re
    from collections import Counter

    import pandas as pd
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import (
        RAKE_STOPWORDS,
        rake_keyphrases,
    )

    texts = [
        "Deep learning of neural networks is the art of tuning",
        "neural networks and deep learning, for fun AND profit!",
        "the quick brown fox; deep learning -- again",
        "tuning neural networks",
        "",
        "a an and of... (only stopwords)",
    ] * 3
    t = pa.table({"text": pa.array(texts, pa.string())})
    got = rake_keyphrases(
        ray.data.from_arrow(t).repartition(4), top_k=10
    ).to_pandas()
    # brute force
    stop = set(RAKE_STOPWORDS)
    phrases = []
    for txt in texts:
        words = re.findall(r"[a-z0-9]+", txt.lower())
        cur = []
        for w in words:
            if w in stop:
                if cur:
                    phrases.append(" ".join(cur))
                cur = []
            else:
                cur.append(w)
        if cur:
            phrases.append(" ".join(cur))
    freq: Counter = Counter()
    deg: Counter = Counter()
    for p in phrases:
        ws = p.split()
        for w in ws:
            freq[w] += 1
            deg[w] += len(ws)
    score_w = {
        w: (deg[w] * 1_000_000) // freq[w] for w in freq
    }
    ph_count = Counter(phrases)
    rows = [
        (p, int(c), sum(score_w[w] for w in p.split()))
        for p, c in ph_count.items()
    ]
    ref = (
        pd.DataFrame(rows, columns=["phrase", "n_occ", "score_q"])
        .sort_values(
            ["score_q", "phrase"], ascending=[False, True]
        )
        .head(10)
        .reset_index(drop=True)
    )
    got = got.reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype(ref.dtypes.to_dict()), ref
    )
    # the multi-word planted phrases outrank single words
    assert got["phrase"].iloc[0].count(" ") >= 1


def test_anova_oneway_differential(ray_session):
    """anova_oneway == the float one-way ANOVA brute force (within
    the micro-unit quantization), with a planted group shift."""
    import numpy as np
    import pyarrow as pa
    import pytest

    import ray.data

    from console_log_parser_ray.stages.events import anova_oneway

    rng = np.random.default_rng(53)
    n = 6000
    grp = rng.choice(["g0", "g1", "g2", "g3"], n)
    cents = rng.integers(1000, 9000, n)
    cents = cents + np.where(grp == "g2", 1500, 0)  # planted shift
    t = pa.table(
        {
            "grp": pa.array(list(grp), pa.string()),
            "cents": pa.array(cents, pa.int64()),
        }
    )
    got = anova_oneway(
        ray.data.from_arrow(t).repartition(5)
    ).to_pandas()
    groups = [cents[grp == g] for g in sorted(set(grp))]
    k = len(groups)
    nn = sum(len(g) for g in groups)
    grand = cents.sum() / nn
    ssb = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
    ssw = sum(((g - g.mean()) ** 2).sum() for g in groups)
    f_ref = (ssb / (k - 1)) / (ssw / (nn - k))
    eta_ref = ssb / (ssb + ssw)
    assert list(got["grp"]) == sorted(set(grp))
    assert got["n_g"].sum() == nn
    assert abs(got["f_stat"].iloc[0] - f_ref) < 1e-4 * f_ref
    assert abs(got["eta2"].iloc[0] - eta_ref) < 1e-6
    assert got["f_stat"].iloc[0] > 50  # the shift is detectable
    with pytest.raises(ValueError, match="max_groups"):
        anova_oneway(ray.data.from_arrow(t), max_groups=2)


def test_event_seq_regex_differential(ray_session):
    """event_seq_regex == a per-user re.findall brute force with
    (ts, event_id) ordering; initial collisions raise."""
    import re

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest

    import ray.data

    from console_log_parser_ray.stages.events import event_seq_regex

    rng = np.random.default_rng(61)
    n = 4000
    users = rng.integers(0, 40, n)
    types = rng.choice(
        ["view", "click", "purchase", "error", "signup"], n
    )
    ts = rng.integers(0, 10_000, n)
    eid = np.arange(n, dtype=np.int64)
    t = pa.table(
        {
            "user_id": pa.array(users, pa.int64()),
            "event_type": pa.array(list(types), pa.string()),
            "ts": pa.array(ts, pa.int64()),
            "event_id": pa.array(eid, pa.int64()),
        }
    )
    pats = ("vc", "v[^p]*p", "ee+")
    got = (
        event_seq_regex(
            ray.data.from_arrow(t).repartition(5), pats
        )
        .to_pandas()
        .set_index("pattern")
    )
    df = pd.DataFrame(
        {"u": users, "i": [x[0] for x in types], "ts": ts, "e": eid}
    ).sort_values(["ts", "e"])
    seqs = df.groupby("u")["i"].agg("".join)
    for p in pats:
        rx = re.compile(p)
        counts = seqs.map(lambda s: len(rx.findall(s)))
        assert got.loc[p, "n_users"] == int((counts > 0).sum())
        assert got.loc[p, "n_matches"] == int(counts.sum())
    bad = pa.table(
        {
            "user_id": pa.array([1, 1], pa.int64()),
            "event_type": pa.array(["click", "close"], pa.string()),
            "ts": pa.array([1, 2], pa.int64()),
            "event_id": pa.array([1, 2], pa.int64()),
        }
    )
    with pytest.raises(Exception, match="initials collide"):
        event_seq_regex(
            ray.data.from_arrow(bad), ("c",)
        ).to_pandas()


def test_interval_union_days_differential(ray_session):
    """interval_union_days == a per-key python sweep brute force,
    including touching-span merges and contained intervals."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        interval_union_days,
    )

    rng = np.random.default_rng(71)
    n = 3000
    keys = rng.integers(0, 50, n)
    a = rng.integers(0, 400, n)
    length = rng.integers(0, 30, n)
    b = a + length
    # plant adjacency: some intervals start right after another ends
    t = pa.table(
        {
            "k": pa.array(keys, pa.int64()),
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
        }
    )
    got = (
        interval_union_days(
            ray.data.from_arrow(t).repartition(5)
        )
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    for k in sorted(set(keys)):
        ivs = sorted(
            (int(x), int(y))
            for x, y in zip(a[keys == k], b[keys == k])
        )
        spans = []
        for x, y in ivs:
            if spans and x <= spans[-1][1] + 1:
                spans[-1][1] = max(spans[-1][1], y)
            else:
                spans.append([x, y])
        busy = sum(y - x + 1 for x, y in spans)
        assert got.loc[k, "n_spans"] == len(spans)
        assert got.loc[k, "busy_days"] == busy


def test_seasonal_strength_differential(ray_session):
    """seasonal_strength == the float variance-ratio brute force
    (within residual quantization); planted weekly pattern scores
    high, white noise scores near zero."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import seasonal_strength

    rng = np.random.default_rng(83)
    day_us = 86_400_000_000
    days = np.arange(0, 140, dtype=np.int64)
    season = np.array([0, 0, 0, 0, 0, 40_000, 60_000])
    vals = 100_000 + season[(days + 4) % 7] + rng.integers(
        -3000, 3000, len(days)
    )
    ts = days * day_us + rng.integers(0, day_us, len(days))
    t = pa.table(
        {
            "ts": pa.array(ts, pa.int64()),
            "cents": pa.array(vals, pa.int64()),
        }
    )
    got = seasonal_strength(
        ray.data.from_arrow(t).repartition(4)
    ).to_pandas()
    phases = (days + 4) % 7
    means = {p: vals[phases == p].mean() for p in range(7)}
    resid = vals - np.array([means[p] for p in phases])
    ref = 1.0 - resid.var() / vals.var()
    assert len(got) == 7
    assert abs(got["strength"].iloc[0] - ref) < 1e-4
    assert got["strength"].iloc[0] > 0.8  # planted weekly signal
    flat = pa.table(
        {
            "ts": pa.array(ts, pa.int64()),
            "cents": pa.array(
                rng.integers(0, 100_000, len(days)), pa.int64()
            ),
        }
    )
    noise = seasonal_strength(
        ray.data.from_arrow(flat)
    ).to_pandas()
    assert abs(noise["strength"].iloc[0]) < 0.2


def test_monetary_unit_sample_differential(ray_session):
    """monetary_unit_sample == the sequential cumsum brute force;
    items larger than the interval are always selected."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        monetary_unit_sample,
    )

    rng = np.random.default_rng(97)
    n = 5000
    keys = rng.permutation(np.arange(10, 10 + n, dtype=np.int64))
    cents = rng.integers(1, 10_000, n)
    cents[keys % 997 == 0] = 2_000_000  # whales
    t = pa.table(
        {
            "k": pa.array(keys, pa.int64()),
            "c": pa.array(cents, pa.int64()),
        }
    )
    got = (
        monetary_unit_sample(
            ray.data.from_arrow(t).repartition(6), n_samples=100
        )
        .to_pandas()
        .sort_values("orderkey")
        .reset_index(drop=True)
    )
    order = np.argsort(keys)
    ks, cs = keys[order], cents[order]
    ti = int(cs.sum()) // 100
    cum = np.cumsum(cs)
    hits = cum // ti - (cum - cs) // ti
    sel = hits > 0
    assert list(got["orderkey"]) == list(ks[sel])
    assert list(got["n_hits"]) == list(hits[sel])
    # every whale (> interval) is selected with certainty
    whale_keys = set(keys[cents > ti])
    assert whale_keys <= set(got["orderkey"])


def test_dbscan_embeddings_differential(ray_session):
    """dbscan_embeddings == a numpy brute-force DBSCAN on planted
    dense clusters + scattered noise."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.similarity import (
        dbscan_embeddings,
    )

    rng = np.random.default_rng(101)
    dim = 16
    centers = rng.normal(size=(3, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    vecs, ids = [], []
    vid = 0
    for c in centers:  # tight clusters
        for _ in range(15):
            v = c + rng.normal(scale=0.02, size=dim)
            vecs.append(v / np.linalg.norm(v))
            ids.append(vid)
            vid += 1
    for _ in range(20):  # noise
        v = rng.normal(size=dim)
        vecs.append(v / np.linalg.norm(v))
        ids.append(vid)
        vid += 1
    mat = np.array(vecs)
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs],
                pa.list_(pa.float32()),
            ),
        }
    )
    got = (
        dbscan_embeddings(
            ray.data.from_arrow(t).repartition(4),
            eps_cos=0.9,
            min_pts=3,
        )
        .to_pandas()
        .set_index("vec_id")
        .sort_index()
    )
    # brute force on float32-rounded vectors (what the engine reads)
    m32 = np.array(
        [np.asarray(v, np.float32) for v in vecs], np.float64
    )
    m32 /= np.linalg.norm(m32, axis=1, keepdims=True)
    sims = m32 @ m32.T
    np.fill_diagonal(sims, -1)
    adj = sims >= 0.9
    deg = adj.sum(axis=1)
    core = deg >= 2
    # union-find over core-core edges
    parent = list(range(len(ids)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            if adj[a, b] and core[a] and core[b]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    for i in range(len(ids)):
        role = got.loc[i, "role"]
        if core[i]:
            assert role == "core"
            assert got.loc[i, "cluster_id"] == find(i)
        else:
            core_nb = [
                find(j)
                for j in range(len(ids))
                if adj[i, j] and core[j]
            ]
            if core_nb:
                assert role == "border"
                assert got.loc[i, "cluster_id"] == min(core_nb)
            else:
                assert role == "noise"
                assert got.loc[i, "cluster_id"] is None or np.isnan(
                    got.loc[i, "cluster_id"]
                )
    # the three planted clusters resolve to three labels
    core_labels = set(
        got[got["role"] == "core"]["cluster_id"].astype(int)
    )
    assert len(core_labels) == 3


def test_hard_negatives_differential(ray_session):
    """hard_negatives == a numpy brute force: nearest different-
    label vectors, same-label near-dups excluded."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.similarity import (
        hard_negatives,
    )

    rng = np.random.default_rng(103)
    dim = 12
    n = 200
    vecs = rng.normal(size=(n, dim))
    labels = np.array([f"l{i % 4}" for i in range(n)])
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs],
                pa.list_(pa.float32()),
            ),
            "label": pa.array(list(labels), pa.string()),
        }
    )
    got = (
        hard_negatives(
            ray.data.from_arrow(t).repartition(5),
            n_anchors=4,
            k=3,
        )
        .to_pandas()
        .sort_values(["anchor", "cosine"], ascending=[True, False])
        .reset_index(drop=True)
    )
    m = np.array(
        [np.asarray(v, np.float32) for v in vecs], np.float32
    )
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    sims = (m[:4] @ m.T).astype(np.float64)
    for a in range(4):
        mask = labels != labels[a]
        order = sorted(
            np.flatnonzero(mask),
            key=lambda j: (-sims[a, j], j),
        )[:3]
        sub = got[got["anchor"] == a]
        assert list(sub["neg"]) == [int(j) for j in order]
        # no same-label vector leaks in
        assert all(labels[j] != labels[a] for j in sub["neg"])


def test_rolling_quantile_breaches_differential(ray_session):
    """rolling_quantile_breaches == a python RANGE-window brute
    force with calendar gaps; a planted spike is flagged."""
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        rolling_quantile_breaches,
    )

    rng = np.random.default_rng(107)
    day_us = 86_400_000_000
    days = np.arange(0, 200, dtype=np.int64)
    days = days[days % 13 != 5]  # calendar gaps
    vals = rng.integers(90_000, 110_000, len(days))
    vals[50] = 500_000  # planted spike
    ts = days * day_us + rng.integers(0, day_us, len(days))
    t = pa.table(
        {
            "ts": pa.array(ts, pa.int64()),
            "cents": pa.array(vals, pa.int64()),
        }
    )
    got = (
        rolling_quantile_breaches(
            ray.data.from_arrow(t).repartition(4)
        )
        .to_pandas()
        .set_index("bucket")
    )
    flagged = set()
    for i, (b, x) in enumerate(zip(days, vals)):
        wvals = sorted(
            int(vals[j])
            for j in range(len(days))
            if b - 28 <= days[j] <= b - 1
        )
        if not wvals:
            continue
        p = wvals[max(1, math.ceil(0.95 * len(wvals))) - 1]
        if x > p:
            flagged.add(int(b))
            assert got.loc[b, "p_hi"] == p
            assert got.loc[b, "n_window"] == len(wvals)
    assert set(got.index) == flagged
    assert int(days[50]) in flagged


def test_prf_and_snippet_differential(ray_session):
    """prf_expansion / best_snippet == python brute force over a
    corpus with planted term-dense docs."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.search import (
        best_snippet,
        bm25_keyword,
        prf_expansion,
    )

    rng = np.random.default_rng(113)
    filler = ["alpha", "beta", "gamma", "delta", "epsilon"]
    terms = ("join", "hash")
    texts = []
    for i in range(80):
        words = list(rng.choice(filler, 15))
        if i < 6:  # planted relevant docs
            for pos in (2, 5, 6, 11):
                words[pos] = terms[pos % 2]
            words[8] = "expansionword"
        texts.append(" ".join(words))
    t = pa.table(
        {
            "doc_id": pa.array(
                np.arange(len(texts), dtype=np.int64)
            ),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    exp = prf_expansion(ds, terms, top_r=6, top_k=10).to_pandas()
    # every planted doc carries 'expansionword' once
    row = exp[exp["term"] == "expansionword"]
    assert len(row) == 1
    assert row["n_occ"].iloc[0] == 6
    assert row["n_docs"].iloc[0] == 6
    assert not set(terms) & set(exp["term"])
    # snippet: brute-force window count on the top doc
    snip = (
        best_snippet(ds, terms, top_r=3, window=10)
        .to_pandas()
        .set_index("doc_id")
    )
    scored = bm25_keyword(ds, terms).to_pandas()
    top3 = list(
        scored.sort_values(
            ["score", "doc_id"], ascending=[False, True]
        )["doc_id"].head(3)
    )
    assert sorted(snip.index) == sorted(top3)
    for did in top3:
        toks = texts[did].split()
        best = max(
            range(len(toks) - 9),
            key=lambda s: (
                sum(1 for w in toks[s : s + 10] if w in terms),
                -s,
            ),
        )
        nh = sum(1 for w in toks[best : best + 10] if w in terms)
        assert snip.loc[did, "start_tok"] == best
        assert snip.loc[did, "n_hits"] == nh


def test_kcenter_select_differential(ray_session):
    """kcenter_select == the sequential farthest-point brute force;
    planted far-apart clusters are covered one center each before
    any cluster gets a second."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.similarity import (
        kcenter_select,
    )

    rng = np.random.default_rng(127)
    dim = 10
    centers = np.eye(4, dim)  # orthogonal cluster axes
    vecs, ids = [], []
    vid = 0
    for c in centers:
        for _ in range(12):
            v = c + rng.normal(scale=0.05, size=dim)
            vecs.append(v)
            ids.append(vid)
            vid += 1
    mat = np.array(vecs)
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs],
                pa.list_(pa.float32()),
            ),
        }
    )
    got = kcenter_select(
        ray.data.from_arrow(t).repartition(4), k=6
    ).to_pandas()
    # brute force with the engine's float32-storage round trip
    m = np.array(
        [np.asarray(v, np.float32) for v in vecs], np.float64
    )
    norms = np.sqrt((m * m).sum(axis=1))
    sel = [0]  # smallest id anchor
    for _ in range(5):
        rest = [i for i in range(len(ids)) if i not in sel]
        cov = []
        for i in rest:
            best = max(
                float(m[i] @ m[j])
                / float(norms[i] * norms[j])
                for j in sel
            )
            cov.append((best, i))
        cov.sort()
        sel.append(cov[0][1])
    assert list(got["vec_id"]) == sel
    # the first 4 picks land in 4 distinct planted clusters
    first4 = {int(v) // 12 for v in got["vec_id"][:4]}
    assert len(first4) == 4


def test_nelson_aalen_differential(ray_session):
    """nelson_aalen_hazard == a python KM-style brute force with
    right censoring at the corpus's last day."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        nelson_aalen_hazard,
    )

    rng = np.random.default_rng(131)
    day_us = 86_400_000_000
    rows_u, rows_t = [], []
    for u in range(120):
        first = int(rng.integers(0, 50))
        span = int(rng.integers(0, 40))
        for d in sorted(
            set([first, first + span])
            | set(
                rng.integers(
                    first, first + span + 1, 3
                ).tolist()
            )
        ):
            rows_u.append(u)
            rows_t.append(d * day_us + int(rng.integers(0, day_us)))
    t = pa.table(
        {
            "user_id": pa.array(rows_u, pa.int64()),
            "ts": pa.array(rows_t, pa.int64()),
        }
    )
    got = (
        nelson_aalen_hazard(
            ray.data.from_arrow(t).repartition(5)
        )
        .to_pandas()
        .set_index("dur")
    )
    df = pd.DataFrame({"u": rows_u, "d": np.array(rows_t) // day_us})
    spans = df.groupby("u")["d"].agg(["min", "max"])
    m_day = df["d"].max()
    durs = (spans["max"] - spans["min"]).to_numpy()
    cens = (spans["max"] == m_day).to_numpy()
    haz = 0.0
    seen = 0
    total = len(spans)
    for tt in sorted(set(durs.tolist())):
        at_risk = total - seen
        here = durs == tt
        seen += int(here.sum())
        d = int((here & ~cens).sum())
        if d == 0:
            continue
        haz += d / at_risk
        assert got.loc[tt, "deaths"] == d
        assert got.loc[tt, "at_risk"] == at_risk
        assert abs(got.loc[tt, "na_hazard"] - haz) < 1e-12
    assert set(got.index) <= set(durs.tolist())


def test_mahalanobis_outliers_differential(ray_session):
    """mahalanobis_outliers == the numpy covariance brute force; a
    planted off-ridge point wins even though both its coordinates
    are in-range."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        mahalanobis_outliers,
    )

    rng = np.random.default_rng(137)
    n = 4000
    x = rng.integers(1, 100, n)
    y = 10 * x + rng.integers(-20, 20, n)  # strong ridge
    # planted: in-range marginals, far off the ridge
    x[7], y[7] = 90, 50
    t = pa.table(
        {
            "k1": pa.array(np.arange(n, dtype=np.int64)),
            "k2": pa.array(np.zeros(n, dtype=np.int64)),
            "x": pa.array(x, pa.int64()),
            "y": pa.array(y, pa.int64()),
        }
    )
    got = mahalanobis_outliers(
        ray.data.from_arrow(t).repartition(5), top_k=5
    ).to_pandas()
    xf = x.astype(float)
    yf = y.astype(float)
    cov = np.cov(np.stack([xf, yf]), bias=True)
    inv = np.linalg.inv(cov)
    dx = xf - xf.mean()
    dy = yf - yf.mean()
    d2 = (
        inv[0, 0] * dx * dx
        + 2 * inv[0, 1] * dx * dy
        + inv[1, 1] * dy * dy
    )
    order = sorted(range(n), key=lambda i: (-d2[i], i))[:5]
    assert list(got["k1"]) == order
    assert got["k1"].iloc[0] == 7  # the off-ridge plant wins
    np.testing.assert_allclose(
        got["d2"].to_numpy(), d2[order], rtol=1e-9
    )


def test_cooks_and_partial_corr_differential(ray_session):
    """cooks_outliers == the float OLS-diagnostics brute force (a
    planted line-bender wins); partial_corr == numpy residual
    correlation."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import (
        cooks_outliers,
        partial_corr,
    )

    rng = np.random.default_rng(139)
    n = 3000
    x = rng.integers(1, 100, n)
    y = 5 * x + 100 + rng.integers(-30, 30, n)
    x[3], y[3] = 99, 50  # high-leverage line-bender
    t = pa.table(
        {
            "k1": pa.array(np.arange(n, dtype=np.int64)),
            "k2": pa.array(np.zeros(n, dtype=np.int64)),
            "x": pa.array(x, pa.int64()),
            "y": pa.array(y, pa.int64()),
        }
    )
    got = cooks_outliers(
        ray.data.from_arrow(t).repartition(5), top_k=5
    ).to_pandas()
    xf, yf = x.astype(float), y.astype(float)
    b, a = np.polyfit(xf, yf, 1)
    e = yf - (a + b * xf)
    s2 = (e**2).sum() / (n - 2)
    h = 1.0 / n + (xf - xf.mean()) ** 2 / ((xf - xf.mean()) ** 2).sum()
    cook = e**2 * h / (2 * s2 * (1 - h) ** 2)
    order = sorted(range(n), key=lambda i: (-cook[i], i))[:5]
    assert list(got["k1"]) == order
    assert got["k1"].iloc[0] == 3
    np.testing.assert_allclose(
        got["cook"].to_numpy(), cook[order], rtol=1e-9
    )
    # partial correlation: y ~ x strongly, but given z := x the
    # partial correlation collapses toward the noise level
    z = x + rng.integers(-2, 3, n)
    t2 = pa.table(
        {
            "x": pa.array(x, pa.int64()),
            "y": pa.array(y, pa.int64()),
            "z": pa.array(z, pa.int64()),
        }
    )
    pr = partial_corr(
        ray.data.from_arrow(t2).repartition(4)
    ).to_pylist()[0]
    rxy = np.corrcoef(x, y)[0, 1]
    rxz = np.corrcoef(x, z)[0, 1]
    ryz = np.corrcoef(y, z)[0, 1]
    ref = (rxy - rxz * ryz) / np.sqrt(
        (1 - rxz**2) * (1 - ryz**2)
    )
    assert abs(pr["r_xy"] - rxy) < 1e-9
    assert abs(pr["r_partial"] - ref) < 1e-9
    assert pr["r_xy"] > 0.9 and pr["r_partial"] < 0.8


def test_sprt_stream_differential(ray_session):
    """sprt_stream == the sequential python walk; a planted
    click-heavy prefix triggers accept_h1 at the exact step."""
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import sprt_stream

    rng = np.random.default_rng(149)
    n = 4000
    kinds = np.where(rng.random(n) < 0.62, "click", "view")
    ts = np.sort(rng.integers(0, 10**9, n))
    eid = np.arange(n, dtype=np.int64)
    t = pa.table(
        {
            "event_type": pa.array(list(kinds), pa.string()),
            "ts": pa.array(ts, pa.int64()),
            "event_id": pa.array(eid, pa.int64()),
        }
    )
    got = sprt_stream(
        ray.data.from_arrow(t).repartition(6)
    ).to_pylist()[0]
    q1 = math.floor(math.log(0.55 / 0.45) * 1e6)
    q0 = math.floor(math.log(0.45 / 0.55) * 1e6)
    thr = math.floor(math.log(0.95 / 0.05) * 1e6)
    order = np.lexsort((eid, ts))
    llr = 0
    ref = None
    for idx, j in enumerate(order, start=1):
        llr += q1 if kinds[j] == "click" else q0
        if llr >= thr or llr <= -thr:
            ref = (idx, llr, "accept_h1" if llr >= thr else "accept_h0")
            break
    assert ref is not None
    assert (got["n"], got["llr_q"], got["decision"]) == ref
    assert got["decision"] == "accept_h1"
    # a balanced stream never crosses within a short window
    k2 = np.array(["click", "view"] * 50)
    t2 = pa.table(
        {
            "event_type": pa.array(list(k2), pa.string()),
            "ts": pa.array(
                np.arange(len(k2), dtype=np.int64), pa.int64()
            ),
            "event_id": pa.array(
                np.arange(len(k2), dtype=np.int64), pa.int64()
            ),
        }
    )
    got2 = sprt_stream(ray.data.from_arrow(t2)).to_pylist()[0]
    assert got2["decision"] == "continue"
    assert got2["n"] == len(k2)


def test_wasserstein_1d_differential(ray_session):
    """wasserstein_1d == the numpy CDF-area brute force; a planted
    location shift yields W1 ~= the shift size."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import wasserstein_1d

    rng = np.random.default_rng(151)
    n = 4000
    kinds = np.where(rng.random(n) < 0.5, "click", "view")
    v = rng.integers(0, 2000, n)
    v = v + np.where(kinds == "click", 300, 0)  # planted shift
    t = pa.table(
        {
            "event_type": pa.array(list(kinds), pa.string()),
            "v": pa.array(v, pa.int64()),
        }
    )
    got = wasserstein_1d(
        ray.data.from_arrow(t).repartition(5)
    ).to_pylist()[0]
    a = np.sort(v[kinds == "click"])
    b = np.sort(v[kinds == "view"])
    grid = np.arange(v.min(), v.max() + 1)
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    ref = float(np.abs(fa - fb)[:-1].sum())  # unit-width steps
    assert got["n_a"] == len(a) and got["n_b"] == len(b)
    assert abs(got["w1"] - ref) < 1e-9
    assert 200 < got["w1"] < 400  # tracks the planted shift
    import pytest

    with pytest.raises(ValueError, match="max_distinct"):
        wasserstein_1d(ray.data.from_arrow(t), max_distinct=10)


def test_compress_ratio_differential(ray_session):
    """compress_ratio_by_source == direct zlib byte accounting;
    template-heavy text compresses far better than random text."""
    import zlib

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.textan import (
        compress_ratio_by_source,
    )

    rng = np.random.default_rng(157)
    texts, srcs = [], []
    for i in range(60):
        texts.append("the same boilerplate line repeated " * 40)
        srcs.append("template")
    for i in range(60):
        texts.append(
            "".join(
                chr(int(c)) for c in rng.integers(33, 127, 800)
            )
        )
        srcs.append("noise")
    t = pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = (
        compress_ratio_by_source(
            ray.data.from_arrow(t).repartition(4)
        )
        .to_pandas()
        .set_index("source")
    )
    for s in ("template", "noise"):
        sub = [x for x, ss in zip(texts, srcs) if ss == s]
        bi = sum(len(x.encode()) for x in sub)
        bo = sum(len(zlib.compress(x.encode(), 6)) for x in sub)
        assert got.loc[s, "bytes_in"] == bi
        assert got.loc[s, "bytes_out"] == bo
        assert got.loc[s, "n_docs"] == len(sub)
        assert abs(got.loc[s, "ratio"] - bo / bi) < 1e-12
    assert got.loc["template", "ratio"] < 0.05
    assert got.loc["noise", "ratio"] > 0.7


def test_rbo_rankings_differential():
    """rbo_rankings == the textbook truncated RBO; identical lists
    score the full truncated mass, disjoint lists zero."""
    import math

    from console_log_parser_ray.stages.search import rbo_rankings

    a = [3, 1, 4, 1, 5, 9, 2, 6]
    a = list(dict.fromkeys([3, 1, 4, 5, 9, 2, 6, 8]))
    b = [3, 4, 1, 7, 9, 0, 6, 5]
    got = rbo_rankings(a, b, p=0.9).to_pandas()
    # brute force
    ref = 0.0
    for d in range(1, len(a) + 1):
        x = len(set(a[:d]) & set(b[:d]))
        ref += 0.9 ** (d - 1) * x / d
    ref *= 1.0 - 0.9
    assert abs(got["rbo"].iloc[0] - ref) < 1e-9
    same = rbo_rankings(a, a, p=0.9).to_pandas()
    full = (1 - 0.9) * sum(
        0.9 ** (d - 1) for d in range(1, len(a) + 1)
    )
    assert abs(same["rbo"].iloc[0] - full) < 1e-9
    disj = rbo_rankings(a, [x + 100 for x in a], p=0.9).to_pandas()
    assert disj["rbo"].iloc[0] == 0.0
    assert same["rbo"].iloc[0] > got["rbo"].iloc[0] > 0.0


def test_vocab_coverage_and_hill_differential(ray_session):
    """vocab_coverage_curve / hill_tail_index == python brute
    forces on a Zipf corpus / Pareto-ish tail."""
    import math
    from collections import Counter

    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import hill_tail_index
    from console_log_parser_ray.stages.textan import (
        vocab_coverage_curve,
    )

    rng = np.random.default_rng(163)
    vocab = [f"tok{i}" for i in range(500)]
    texts = []
    for _ in range(300):
        idx = np.minimum(
            rng.zipf(1.3, int(rng.integers(5, 30))) - 1, 499
        ).astype(int)
        texts.append(" ".join(vocab[j] for j in idx))
    t = pa.table(
        {
            "doc_id": pa.array(
                np.arange(len(texts), dtype=np.int64)
            ),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = vocab_coverage_curve(
        ray.data.from_arrow(t).repartition(4), cuts=(10, 50, 200)
    ).to_pandas()
    cnt = Counter(w for x in texts for w in x.split())
    ranked = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
    total = sum(cnt.values())
    for k in (10, 50, 200):
        row = got[got["k"] == k].iloc[0]
        cov = sum(c for _, c in ranked[: min(k, len(ranked))])
        assert row["covered_occ"] == cov
        assert row["total_occ"] == total
        assert abs(row["coverage"] - cov / total) < 1e-12
    assert got.sort_values("k")["coverage"].is_monotonic_increasing
    # Hill on a heavy-ish tail
    vals = (1000 / (1 - rng.random(20000))).astype(np.int64)
    vt = pa.table({"c": pa.array(vals, pa.int64())})
    k = 300
    hill = hill_tail_index(
        ray.data.from_arrow(vt).repartition(5), k=k
    ).to_pylist()[0]
    top = np.sort(vals)[-(k + 1):][::-1]
    lnq = [math.floor(math.log(float(x)) * 1e6) for x in top]
    s = sum(lnq[:k])
    ref = float(k * 1_000_000) / float(s - k * lnq[k])
    assert hill["x_k1"] == int(top[k])
    assert hill["s_lnq"] == s
    assert hill["alpha"] == ref
    assert 0.5 < hill["alpha"] < 2.0  # Pareto(1)-ish tail


def test_hill_tail_index_brute_force_pareto(ray_session):
    """alpha equals the textbook Hill estimator in plain Python: the top
    k order statistics over the (k+1)-th as threshold, every log-excess
    non-zero; on a Pareto(1.5) sample it recovers the tail index."""
    import math
    import random

    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import hill_tail_index

    rng = random.Random(11)
    vals = [int(1000 * (1.0 - rng.random()) ** (-1 / 1.5)) for _ in range(20000)]
    k = 400
    got = hill_tail_index(
        ray.data.from_arrow(pa.table({"c": pa.array(vals, pa.int64())})).repartition(4),
        k=k,
    ).to_pylist()[0]

    top = sorted(vals, reverse=True)[: k + 1]
    excess = [math.log(x) - math.log(top[k]) for x in top[:k]]
    assert all(e > 0 for e in excess)
    alpha = k / sum(excess)
    assert got["k"] == k and got["x_k1"] == top[k]
    assert abs(got["alpha"] - alpha) < 1e-5 * alpha  # micro-nat floors
    assert abs(got["alpha"] - 1.5) < 0.25
    with pytest.raises(ValueError, match="k\\+1"):
        hill_tail_index(ray.data.from_arrow(pa.table({"c": pa.array(vals[:k], pa.int64())})), k=k)


def test_langid_eval_differential(ray_session, tmp_path):
    """langid kappa/PRF == sklearn-free brute force on a synthetic
    confusion via the real query surface at sf0.001."""
    import numpy as np
    import pandas as pd

    import __ray_entry__ as entry

    sf = "/root/testdata/sf0.001"
    cells = entry._confusion_cells(sf)
    n = sum(c for _, _, c in cells)
    agree = sum(c for a, b, c in cells if a == b)
    row, col = {}, {}
    for a, b, c in cells:
        row[a] = row.get(a, 0) + c
        col[b] = col.get(b, 0) + c
    pe = sum(row[k] * col[k] for k in set(row) & set(col))
    kap = entry._q_langid_kappa(sf).to_pylist()[0]
    assert kap["n"] == n and kap["agree"] == agree
    ref = (agree * n - pe) / (n * n - pe)
    assert abs(kap["kappa"] - ref) < 1e-12
    # tiny sf0.001 docs give a near-chance heuristic; the identity
    # (not the quality) is what this pins
    assert -1.0 <= kap["kappa"] <= 1.0
    prf = entry._q_langid_prf(sf).to_pandas().set_index("lang")
    for lg in prf.index:
        tp = sum(c for a, b, c in cells if a == b == lg)
        nt = row.get(lg, 0)
        npred = col.get(lg, 0)
        assert prf.loc[lg, "tp"] == tp
        if npred:
            assert (
                abs(prf.loc[lg, "precision"] - tp / npred) < 1e-12
            )
        if nt:
            assert abs(prf.loc[lg, "recall"] - tp / nt) < 1e-12


def test_vda_effect_differential(ray_session):
    """vda_effect == the O(n^2) probability-of-superiority brute
    force, ties counted half."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import vda_effect

    rng = np.random.default_rng(167)
    n = 1500
    kinds = np.where(rng.random(n) < 0.5, "click", "view")
    v = rng.integers(0, 50, n) + np.where(kinds == "click", 8, 0)
    t = pa.table(
        {
            "event_type": pa.array(list(kinds), pa.string()),
            "v": pa.array(v, pa.int64()),
        }
    )
    got = vda_effect(
        ray.data.from_arrow(t).repartition(5)
    ).to_pylist()[0]
    a = v[kinds == "click"]
    b = v[kinds == "view"]
    gt = (a[:, None] > b[None, :]).sum()
    eq = (a[:, None] == b[None, :]).sum()
    ref = (gt + 0.5 * eq) / (len(a) * len(b))
    assert got["n_a"] == len(a) and got["n_b"] == len(b)
    assert abs(got["vda_a"] - ref) < 1e-12
    assert abs(got["r_rb"] - (2 * ref - 1)) < 1e-12
    assert got["vda_a"] > 0.55  # the planted shift favors clicks


def test_fold_equals_one_arrow_group_by(ray_session):
    """``fold`` over a multi-block input with null metrics: its count,
    sum, max and min folds equal one pyarrow ``group_by`` over the
    whole table; ``limit`` at the folded row count passes and one
    below raises naming ``op``."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pytest

    import ray.data

    from console_log_parser_ray.stages.events import fold

    rng = np.random.default_rng(14)
    n = 3000
    x = rng.integers(-500, 500, n).astype(object)
    x[rng.random(n) < 0.15] = None
    t = pa.table(
        {
            "k": pa.array(rng.choice(["a", "b", "c", "d"], n).tolist()),
            "j": pa.array(rng.integers(0, 25, n), pa.int64()),
            "x": pa.array(x.tolist(), pa.int64()),
        }
    )
    ds = ray.data.from_items(t.to_pylist(), override_num_blocks=7)
    assert ds.materialize().num_blocks() == 7

    def rows(tbl, cols):
        return sorted(zip(*(tbl.column(c).to_pylist() for c in cols)))

    keys = ["k", "j"]
    want = t.group_by(keys).aggregate(
        [([], "count_all"), ("x", "sum"), ("x", "max"), ("x", "min")]
    )
    want_cols = keys + ["count_all", "x_sum", "x_max", "x_min"]

    counted = fold(ds, lambda b: b, keys)
    assert counted.column_names == keys + ["n"]
    assert counted.schema.field("n").type == pa.int64()

    def project(b):
        return b.append_column("x_max", b.column("x")).append_column(
            "x_min", b.column("x")
        )

    got = fold(ds, project, keys, {"x": "sum", "x_max": "max", "x_min": "min"})
    assert got.column_names == keys + ["x", "x_max", "x_min"]
    got = got.join(counted, keys)
    assert rows(got, keys + ["n", "x", "x_max", "x_min"]) == rows(
        want, want_cols
    )

    total = fold(ds, lambda b: b, [], {"x": "sum"})
    assert total.to_pylist() == [{"x": pc.sum(t.column("x")).as_py()}]

    groups = want.num_rows
    assert fold(ds, lambda b: b, keys, limit=groups).num_rows == groups
    with pytest.raises(ValueError, match="my_op") as err:
        fold(ds, lambda b: b, keys, limit=groups - 1, op="my_op")
    assert f"max_distinct={groups - 1}" in str(err.value)


def _no_collect(monkeypatch):
    """Make every way a folded table reaches the driver raise."""
    import ray.data
    from ray.data.dataset import MaterializedDataset

    def refuse(*_a, **_k):
        raise AssertionError("collected before the guard")

    monkeypatch.setattr(ray.data.Dataset, "take_all", refuse)
    monkeypatch.setattr(ray.data.Dataset, "to_arrow_refs", refuse)
    monkeypatch.setattr(MaterializedDataset, "iter_batches", refuse)


def test_mase_seasonal_guard_fires_before_collect(ray_session, monkeypatch):
    """Over ``max_distinct`` (key, window) rows, ``mase_seasonal``
    raises before any folded row reaches the driver."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import mase_seasonal

    t = pa.table(
        {
            "event_type": pa.array(["a", "b"] * 10),
            "ts": pa.array(range(0, 20_000, 1000), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    _no_collect(monkeypatch)
    with pytest.raises(ValueError, match="max_distinct"):
        mase_seasonal(ds, window_us=1000, max_distinct=5)


def test_anova_oneway_guard_fires_before_collect(ray_session, monkeypatch):
    """Over ``max_groups`` groups, ``anova_oneway`` raises before any
    folded row reaches the driver."""
    import pyarrow as pa

    import ray.data

    from console_log_parser_ray.stages.events import anova_oneway

    t = pa.table(
        {
            "grp": pa.array(["g0", "g1", "g2"] * 5),
            "cents": pa.array(range(15), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    _no_collect(monkeypatch)
    with pytest.raises(ValueError, match="max_groups"):
        anova_oneway(ds, max_groups=2)
