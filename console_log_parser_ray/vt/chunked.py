"""Chunk-parallel session scanning for giant conversations.

A conversation larger than one worker's slice of time cannot be split
naively: the feature FSM (prompt protocol, vim spans) and the tokenizer
carry state across lines (SURVEY.md section 4.2).  This module
parallelizes anyway with *speculative scans + state convergence*, the
classic scheme for parallelizing deterministic FSMs over a split input:

1. The conversation's turns are cut into chunks.  Every chunk except
   the first is scanned **speculatively** from the neutral state
   (GROUND tokenizer, NORMAL feature state, empty line builders),
   recording per-line output records, per-line behavioral state
   signatures, and per-line counter values.
2. A sequential **stitch** pass walks the true state across chunk
   boundaries: it re-scans the head of each chunk with the true
   carried-in state until the true state signature equals the
   speculative one at the same line.  From that line on the speculative
   records are provably identical except for the monotonic counters
   (command row number, vim session number), which differ by a constant
   offset -- so they are adopted wholesale with the offsets applied,
   and the speculative scanner (counters shifted) becomes the true
   scanner for the next boundary.

Terminal sessions re-synchronize at every shell prompt, so convergence
typically happens within a handful of lines; a chunk that never
converges (e.g. one lying entirely inside a vim session) is simply
re-scanned, which is the sequential worst case, never an error.

Restrictions: suppression lists are not supported here (suppression
decisions depend on the absolute command number, which speculation
cannot know); the driver falls back to the sequential scan for
suppressed conversations.
"""

from __future__ import annotations

from .session import SessionScanner, TurnRecord
from .tokenizer import GROUND


def state_sig(sc: SessionScanner) -> tuple:
    """Behavioral state of a scanner, excluding monotonic counters.

    Two scanners with equal signatures produce identical outputs for
    any identical future input, up to constant offsets on cmd_count /
    cmd_number / vim_session_id (and identical clean_text, since no
    buffered text differs).
    """
    tok = sc.tok
    return (
        tok.state,
        tok.private,
        tok.interm,
        tok.params,
        tuple(tok.osc_buf),
        tok.dcs_key,
        tuple(tok.dcs_buf),
        tok.utf8_need,
        tok.utf8_acc,
        sc.tlp,
        sc.osc_string,
        sc.vim_2200_seen,
        sc.next_vim,
        sc.app_active,
        sc.ckm_set_pos,
        sc.ckm_reset_pos,
        sc.in_prompt,
        sc.in_vim,
        tuple(sc.cmd_line.cells),
        sc.cmd_line.cur,
        sc.cmd_line.prefix_start,
        # pending (unflushed) warnings counters: scanners that converge
        # on every other dimension but carry different pending warnings
        # would report different warnings values at the next flush
        sc.cmd_line.warnings,
        tuple(sc.term_line.cells),
        sc.term_line.cur,
        sc.term_line.prefix_start,
        sc.term_line.warnings,
    )


def speculative_scan(texts, start_idx: int = 0):
    """Scan a chunk from the neutral state; returns
    (records, per-line state sigs, per-line (cmd_count, cmd_number,
    vim_session_seq) counter snapshots, end scanner)."""
    sc = SessionScanner()
    recs, sigs, counters = [], [], []
    for i, text in enumerate(texts):
        recs.append(sc.scan_turn(start_idx + i, text))
        sigs.append(state_sig(sc))
        counters.append((sc.cmd_count, sc.cmd_number, sc.vim_session_seq))
    return recs, sigs, counters, sc


def _shift_record(rec: TurnRecord, d_cmd, d_num, d_vim) -> TurnRecord:
    # counters are affine: true = speculative + boundary delta (a row
    # still in the pre-chunk command row has speculative count 0 and
    # inherits the delta wholesale)
    rec.cmd_count += d_cmd
    rec.cmd_number += d_num
    if rec.vim_session_id >= 0:
        rec.vim_session_id += d_vim
    return rec


def _shift_scanner(sc: SessionScanner, d_cmd, d_num, d_vim):
    sc.cmd_count += d_cmd
    sc.cmd_number += d_num
    sc.prompt_count += d_cmd  # prompt_count tracks cmd rows 1:1
    sc.vim_session_seq += d_vim
    return sc


def scan_conversation_chunked(texts, chunk_size: int):
    """Chunked scan of one conversation; output records are identical
    to a sequential :class:`SessionScanner` pass (asserted by tests).
    The flagship's giant path runs the same speculate-then-stitch
    scheme with the speculative scans as Ray tasks
    (``pipelines.run._giant_steps``).
    """
    n = len(texts)
    if n == 0:
        return []
    bounds = list(range(0, n, chunk_size))
    chunks = [(b, texts[b : b + chunk_size]) for b in bounds]

    # Phase 1: speculative scans for chunks 1..k (parallelizable)
    spec = [None] + [
        speculative_scan(c_texts, b) for b, c_texts in chunks[1:]
    ]

    # Phase 2: true pass over chunk 0, then stitch each boundary
    out: list[TurnRecord] = []
    sc = SessionScanner()
    for i, text in enumerate(chunks[0][1]):
        out.append(sc.scan_turn(i, text))

    for k in range(1, len(chunks)):
        base, c_texts = chunks[k]
        s_recs, s_sigs, s_counters, s_end = spec[k]
        converged = None
        for j, text in enumerate(c_texts):
            out.append(sc.scan_turn(base + j, text))
            if state_sig(sc) == s_sigs[j]:
                converged = j
                break
        if converged is None:
            continue  # whole chunk re-scanned sequentially
        d_cmd = sc.cmd_count - s_counters[converged][0]
        d_num = sc.cmd_number - s_counters[converged][1]
        d_vim = sc.vim_session_seq - s_counters[converged][2]
        for rec in s_recs[converged + 1 :]:
            out.append(_shift_record(rec, d_cmd, d_num, d_vim))
        sc = _shift_scanner(s_end, d_cmd, d_num, d_vim)

    return out

