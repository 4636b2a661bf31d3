"""Chunk-parallel scan == one-pass scan, on every SCAN_SCHEMA column."""

import pyarrow as pa
import pytest

from console_log_parser_ray.sources.synth import gen_conversation, gen_table
from console_log_parser_ray.stages.scan import scan_bucket_table
from console_log_parser_ray.vt import chunked
from console_log_parser_ray.vt.chunked import scan_conversation_chunked
from console_log_parser_ray.vt.session import SessionScanner


def _table(texts):
    n = len(texts)
    return pa.table(
        {
            "conv_id": pa.array(["c"] * n, pa.string()),
            "turn_idx": pa.array(range(n), pa.int32()),
            "text": pa.array(texts, pa.string()),
            "ts": pa.array(
                [1_700_000_000_000_000 + i for i in range(n)], pa.timestamp("us")
            ),
        }
    )


def _assert_equal(tbl, chunk_size, head, label):
    want = scan_bucket_table(tbl)
    got = scan_conversation_chunked(tbl, chunk_size, head)
    assert got.schema == want.schema, label
    for name in want.schema.names:
        assert got.column(name).equals(want.column(name)), f"{label}: {name}"


@pytest.mark.parametrize("ci", [0, 2, 5, 9])
@pytest.mark.parametrize("chunk_size", [7, 23, 64])
def test_chunked_matches_sequential_synth(ci, chunk_size):
    turns = gen_conversation(ci, seed=77, mean_turns=120)
    tbl = _table([t.text for t in turns])
    # a head as long as the chunk, and one too short for some boundaries
    # to converge in (their chunks are walked to the end by the stitch)
    for head in (chunk_size, 3):
        _assert_equal(tbl, chunk_size, head, f"conv{ci}/cs{chunk_size}/h{head}")


@pytest.mark.parametrize("stem", ["testtermlog_3", "testtermlog_4", "session_win_2"])
@pytest.mark.parametrize("chunk_size", [11, 100])
def test_chunked_matches_sequential_corpus(stem, chunk_size, corpus_lines):
    # corpus lines are newline-terminated; drop the trailing newline (the
    # chunked scan assumes every line has one)
    texts = []
    for raw in corpus_lines[stem]:
        if not raw.endswith(b"\n"):
            raw += b"\n"
        texts.append(raw[:-1].decode())
    _assert_equal(_table(texts), chunk_size, 8, f"{stem}/cs{chunk_size}")


def test_chunked_convergence_is_fast():
    """Boundaries inside normal output converge within a few lines."""
    turns = gen_conversation(1, seed=77, mean_turns=200)
    texts = pa.chunked_array([[t.text for t in turns]], pa.string())
    chunk = 50
    # chunk 0 speculates from the true start, so its end scanner is the
    # true scanner at chunk 1's start
    sc = chunked.speculate(texts.slice(0, chunk), 0)[3]
    rest = texts.slice(chunk)
    _, sigs, _, _, _ = chunked.speculate(rest, len(rest))
    lines = chunked._Lines(rest, chunked._Memo())
    for j in range(len(rest)):
        lines.scan(sc, j, j + 1)
        if chunked.state_sig(sc) == sigs[j]:
            assert j < 15, f"convergence took {j} lines"
            return
    pytest.fail("never converged")


def test_chunked_giant_takes_the_fast_path(monkeypatch):
    """A perfbench-shaped giant conversation: the chunked scan equals the
    one-pass scan, and speculation, stitch and finalize together take
    the exact walk on under 2% of its rows."""
    tbl = gen_table(1, 4701, 20000, 0).select(["conv_id", "turn_idx", "text", "ts"])
    want = scan_bucket_table(tbl)
    calls = [0]
    scan_turn = SessionScanner.scan_turn

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return scan_turn(self, *args, **kwargs)

    monkeypatch.setattr(SessionScanner, "scan_turn", counted)
    got = scan_conversation_chunked(tbl, 500, 256)
    monkeypatch.undo()
    assert got.equals(want)
    assert calls[0] < 0.02 * tbl.num_rows, calls[0]
