"""Chunk-parallel scan == sequential scan, record for record."""

import pytest

from console_log_parser_ray.sources.synth import gen_conversation
from console_log_parser_ray.vt.chunked import scan_conversation_chunked
from console_log_parser_ray.vt.session import SessionScanner


def _sequential(texts):
    sc = SessionScanner()
    return [sc.scan_turn(i, t) for i, t in enumerate(texts)]


def _assert_equal(seq, chunked, label):
    assert len(seq) == len(chunked), label
    for a, b in zip(seq, chunked):
        for f in (
            "turn_idx",
            "clean_text",
            "cmd_count",
            "cmd_number",
            "is_prompt",
            "command",
            "cwd",
            "in_vim",
            "vim_started",
            "vim_ended",
            "vim_session_id",
            "osc_title",
        ):
            assert getattr(a, f) == getattr(b, f), (
                f"{label}: turn {a.turn_idx} field {f}: "
                f"{getattr(a, f)!r} != {getattr(b, f)!r}"
            )


@pytest.mark.parametrize("ci", [0, 2, 5, 9])
@pytest.mark.parametrize("chunk_size", [7, 23, 64])
def test_chunked_matches_sequential_synth(ci, chunk_size):
    turns = gen_conversation(ci, seed=77, mean_turns=120)
    texts = [t.text for t in turns]
    seq = _sequential(texts)
    chunked = scan_conversation_chunked(texts, chunk_size)
    _assert_equal(seq, chunked, f"conv{ci}/cs{chunk_size}")


@pytest.mark.parametrize("stem", ["testtermlog_3", "testtermlog_4", "session_win_2"])
@pytest.mark.parametrize("chunk_size", [11, 100])
def test_chunked_matches_sequential_corpus(stem, chunk_size, corpus_lines):
    # corpus lines are newline-terminated; drop the trailing newline and
    # skip files whose last line is unterminated (chunked API assumes
    # uniform has_eol)
    texts = []
    for raw in corpus_lines[stem]:
        if not raw.endswith(b"\n"):
            raw += b"\n"
        texts.append(raw[:-1].decode())
    seq = _sequential(texts)
    chunked = scan_conversation_chunked(texts, chunk_size)
    _assert_equal(seq, chunked, f"{stem}/cs{chunk_size}")


def test_chunked_convergence_is_fast():
    """Boundaries inside normal output converge within a few lines."""
    from console_log_parser_ray.vt.chunked import speculative_scan, state_sig

    turns = gen_conversation(1, seed=77, mean_turns=200)
    texts = [t.text for t in turns]
    chunk = 50
    s_recs, s_sigs, _, _ = speculative_scan(texts[chunk:], chunk)
    sc = SessionScanner()
    for i, t in enumerate(texts[:chunk]):
        sc.scan_turn(i, t)
    for j in range(len(texts) - chunk):
        sc.scan_turn(chunk + j, texts[chunk + j])
        if state_sig(sc) == s_sigs[j]:
            assert j < 15, f"convergence took {j} lines"
            return
    pytest.fail("never converged")

