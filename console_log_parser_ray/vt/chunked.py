"""Chunk-parallel session scanning for giant conversations.

A conversation larger than one worker's slice of time cannot be split
naively: the feature FSM (prompt protocol, vim spans) and the tokenizer
carry state across lines (SURVEY.md section 4.2).  This module
parallelizes anyway with *speculative scans + state convergence*, the
classic scheme for parallelizing deterministic FSMs over a split input.
Every step runs the one session scan, ``stages.scan._scan_rows`` (its
state-checked fast paths, the exact walk where they do not apply):

1. ``speculate``: the conversation's turns are cut into chunks, and
   every chunk, the first included, is scanned **speculatively** from a
   fresh scanner.  Only stitch metadata comes back: the state
   signatures and counters after each of the chunk's first ``head``
   lines, the end scanner, and the lines that found a command or a cwd.
2. ``stitch``, sequential: the true scanner re-scans the head of each
   chunk until its state signature equals the speculative one at the
   same line.  From that line on the chunk's speculative scan is
   provably the true one except for the monotonic counters (command
   row number, vim session number), which differ by a constant offset:
   the speculative discoveries are adopted with the offsets applied,
   and the speculative end scanner (counters shifted) becomes the true
   scanner for the next boundary.  The stitch keeps a copy of the true
   scanner at each chunk start and builds the conversation's complete
   command/cwd backfill maps.
3. ``finalize``, one call per chunk (parallelizable): the chunk is
   scanned again from its true start scanner, backfilled from the
   complete maps, into the scan's ``SCAN_SCHEMA`` table.

Terminal sessions re-synchronize at every shell prompt, so convergence
typically happens within a handful of lines; a chunk that never
converges (e.g. one lying entirely inside a vim session) is simply
walked to its end by the stitch, which is the sequential worst case,
never an error.  The flagship's giant path
(``pipelines.run._giant_steps``) runs the speculative scans and the
finalize calls as Ray tasks; ``scan_conversation_chunked`` runs the
same three steps in-process.  Suppression lists are not supported:
suppression decisions depend on the absolute command number, which
speculation cannot know.
"""

from __future__ import annotations

import copy

import pyarrow as pa

from ..stages.scan import (
    SCAN_SCHEMA,
    _fast_hints,
    _Memo,
    _pylist,
    _scan_rows,
    _Turns,
)
from .session import SessionScanner


def state_sig(sc: SessionScanner) -> tuple:
    """Behavioral state of a scanner, excluding monotonic counters.

    Two scanners with equal signatures produce identical outputs for
    any identical future input, up to constant offsets on cmd_count /
    cmd_number / vim_session_id (and identical clean_text, since no
    buffered text differs).

    Signatures compare only between scanners driven by the same scan
    code.  The fast paths and the exact walk reach the same outputs
    through different states: after a non-title OSC noise line, the fast
    path leaves ``osc_string`` at the last prompt title while the exact
    walk stores every OSC.  ``osc_string`` is read only in PROMPT_OSC,
    which always sets it first, so the outputs agree; but a fast and an
    exact scanner would differ in signature on many lines and converge
    late.  Both sides of the stitch therefore scan with ``_scan_rows``.
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


def _counters(sc: SessionScanner) -> tuple:
    return (sc.cmd_count, sc.cmd_number, sc.vim_session_seq)


class _Lines:
    """A run of one conversation's lines (a text column, in turn order)
    as ``_scan_rows`` takes them, scanned a row range at a time into
    ``out``."""

    def __init__(self, text_col: pa.ChunkedArray, memo: _Memo):
        self.text_col = text_col.combine_chunks().cast(pa.string())
        self.texts = _pylist(self.text_col)
        self.hints = _fast_hints(self.text_col)
        self.n = len(self.texts)
        self.eols = [True] * self.n
        self.memo = memo
        self.out = _Turns()

    def scan(self, sc: SessionScanner, lo: int, hi: int):
        _scan_rows(
            sc, self.out, self.texts, range(self.n), self.eols, self.hints,
            lo, hi, self.memo,
        )

    def found(self) -> list:
        """``(row, cmd_count, command, cwd)`` of each scanned row that
        found a command or a cwd; ``row`` counts the scanned rows."""
        out = self.out
        return [
            (i, c, t, w)
            for i, (c, t, w) in enumerate(zip(out.cmd_count, out.command, out.cwd))
            if t is not None or w
        ]


def speculate(text_col: pa.ChunkedArray, head: int) -> tuple:
    """Scan one chunk's lines from a fresh scanner; returns its stitch
    metadata ``(head_texts, sigs, counters, end, found)``: the first
    ``head`` lines, the state signature and ``(cmd_count, cmd_number,
    vim_session_seq)`` after each of them, the end scanner, and the
    chunk's discoveries (``_Lines.found``, rows counted from the chunk
    start, counters speculative)."""
    lines = _Lines(text_col, _Memo())
    sc = SessionScanner()
    sigs, counters = [], []
    for j in range(min(head, lines.n)):
        lines.scan(sc, j, j + 1)
        sigs.append(state_sig(sc))
        counters.append(_counters(sc))
    lines.scan(sc, len(sigs), lines.n)
    head_texts = pa.chunked_array([lines.texts[:head]], pa.string())
    return head_texts, sigs, counters, sc, lines.found()


def _shift_scanner(sc: SessionScanner, d_cmd, d_num, d_vim):
    sc.cmd_count += d_cmd
    sc.cmd_number += d_num
    sc.prompt_count += d_cmd  # prompt_count tracks cmd rows 1:1
    sc.vim_session_seq += d_vim
    return sc


def stitch(specs, read_chunk) -> tuple:
    """Carry the true scanner across every chunk boundary.

    ``specs`` yields each chunk's ``speculate`` result in chunk order;
    ``read_chunk(k)`` returns chunk ``k``'s text column, read only when
    its head does not converge.  Returns ``(starts, carry)``: a copy of
    the true scanner at each chunk's start, and the conversation's
    complete ``(cmd_text, cmd_cwd)`` backfill maps, each command row's
    first command text and cwd in conversation order."""
    sc = SessionScanner()
    memo = _Memo()
    cmd_text, cmd_cwd = {}, {}

    def discover(found, d_cmd=0):
        for _, c, t, w in found:
            if t is not None:
                cmd_text.setdefault(c + d_cmd, t)
            if w:
                cmd_cwd.setdefault(c + d_cmd, w)

    starts = []
    for k, (head_texts, sigs, counters, end, found) in enumerate(specs):
        starts.append(copy.deepcopy(sc))
        lines = _Lines(head_texts, memo)
        converged = None
        for j in range(len(sigs)):
            lines.scan(sc, j, j + 1)
            if state_sig(sc) == sigs[j]:
                converged = j
                break
        discover(lines.found())
        if converged is None:
            # no convergence within the head: walk the rest of the chunk
            # (the sequential worst case, still exact)
            rest = _Lines(read_chunk(k), memo)
            rest.scan(sc, len(sigs), rest.n)
            discover(rest.found())
            continue
        d_cmd, d_num, d_vim = (
            t - s for t, s in zip(_counters(sc), counters[converged])
        )
        # the head owns the rows up to convergence
        discover([f for f in found if f[0] > converged], d_cmd)
        sc = _shift_scanner(end, d_cmd, d_num, d_vim)
    return starts, (cmd_text, cmd_cwd)


def finalize(tbl: pa.Table, sc: SessionScanner, carry: tuple) -> pa.Table:
    """The ``SCAN_SCHEMA`` table of one chunk: ``tbl`` holds its
    conv_id, turn_idx, text and ts in turn order, ``sc`` is its true
    start scanner (``stitch``), ``carry`` the conversation's complete
    backfill maps (complete, so the backfill adds nothing to them)."""
    lines = _Lines(tbl.column("text"), _Memo())
    lines.scan(sc, 0, lines.n)
    return lines.out.table(
        tbl.column("conv_id").combine_chunks().cast(pa.string()),
        tbl.column("turn_idx").combine_chunks().cast(pa.int32()),
        tbl.column("ts").combine_chunks(),
        lines.text_col,
        carry,
    )


def scan_conversation_chunked(
    tbl: pa.Table, chunk_size: int, head: int = 256
) -> pa.Table:
    """Chunked scan of one conversation (``tbl``: conv_id, turn_idx,
    text and ts, in turn order), in-process; the table equals
    ``scan_bucket_table(tbl)`` (asserted by tests).  The flagship's
    giant path runs the same steps as Ray tasks
    (``pipelines.run._giant_steps``)."""
    if tbl.num_rows == 0:
        return SCAN_SCHEMA.empty_table()
    chunks = [tbl.slice(b, chunk_size) for b in range(0, tbl.num_rows, chunk_size)]
    starts, carry = stitch(
        (speculate(c.column("text"), head) for c in chunks),
        lambda k: chunks[k].column("text"),
    )
    # each chunk gets its own copy of the maps, as each finalize task does
    return pa.concat_tables(
        [
            finalize(c, sc, tuple(dict(m) for m in carry))
            for c, sc in zip(chunks, starts)
        ]
    )
