"""Stdout replay with simulated typing (SURVEY S8 + M10).

Re-expresses the reference's plain-text replay sink (reference
terminalreplay.py:11-182 ``VT2Output``): the raw session stream is
passed through verbatim except that (a) terminal-response triggers —
DSR ``CSI n`` and primary DA ``CSI c`` with empty/``0`` param — are
discarded (reference terminalreplay.py:84-89), (b) vim-session content
is suppressed unless ``print_vim`` (reference terminalreplay.py:42-47),
and (c) with ``cleanup_cmdline`` (the default) everything typed at a
prompt is replaced by the *final* reconstructed command line, typed out
with per-character pacing (reference terminalreplay.py:107-162).

The typing simulator (M10) is modeled as a *schedule*: an ordered list
of ``(delay_seconds, text)`` chunks, where ``delay_seconds`` is the
pause before the chunk is written.  The CLI walks the schedule with
``time.sleep``; tests compare schedules without sleeping; the
data-plane operator drops the pacing and keeps per-turn replay text.

Documented deviations from the reference (all on reference-crash
paths, CONFORMANCE.md policy "match the working behavior"):

* ``VT2Output.vim_start`` takes no event argument but its caller passes
  one (reference terminalreplay.py:178 vs terminalparser.py:280), so
  the reference replay crashes on ANY recording containing a vim
  session.  Here vim sessions are handled (suppressed or typed out per
  ``print_vim``), matching the obvious intent.
* ``CSI @`` at a prompt inserts *string* elements into the reference's
  code list which then crash ``chr()`` at print time (reference
  terminalreplay.py:130 vs :152); here it inserts the blank characters.
* A command line containing no space crashes ``print_cmd_line``
  (``list.index`` at reference terminalreplay.py:150); here the whole
  line is typed without the prompt-skip pause.
"""

from __future__ import annotations

import pyarrow as pa

from ..vt.session import SessionScanner


class _CmdLineCodes:
    """The replay command-line builder (reference
    terminalreplay.py:107-146): a flat list of code points with a
    cursor.  Deliberately simpler than the HTML path's EditLine — TAB
    and unhandled CSI codes are discarded, there is no prompt-prefix
    logic, and the cursor may legally park at -1 (``CSI D`` decrements
    through zero, reference terminalreplay.py:133-137)."""

    __slots__ = ("codes", "pos")

    def __init__(self):
        self.codes = []
        self.pos = 0

    def put(self, code: int):
        if self.pos >= len(self.codes) or not self.codes:
            self.codes.insert(self.pos, code)
        else:
            self.codes[self.pos] = code
        self.pos += 1

    def ctrl(self, code: int):
        if code == 0x08:  # BS
            if self.pos > 0:
                self.pos -= 1
        elif code == 0x0D:  # CR
            self.pos = 0
        elif code == 0x0A:  # LF terminates the command line
            self.codes.insert(len(self.codes), code)
            self.pos += 1
        # everything else is discarded

    def csi(self, params: str, interm: str, final: str):
        if final == "@" and interm == "":
            n = 1 if params == "" else int(params)
            for _ in range(n):
                self.codes.insert(self.pos, 0x20)
        elif final == "C":
            self.pos += 1 if params == "" else int(params)
        elif final == "D":
            p = 1 if params == "" else int(params)
            while self.pos >= 0 and p:
                self.pos -= 1
                p -= 1
        elif final == "K":
            if params in ("", "0"):
                del self.codes[self.pos :]
            else:
                raise NotImplementedError(
                    "Erase in Line not implemented: " + params + final
                )
        elif final == "P":
            p = 1 if params == "" else int(params)
            del self.codes[self.pos : self.pos + p]
        # all other sequences are discarded


class ReplayScanner(SessionScanner):
    """SessionScanner with the replay output routing layered on top.

    The base class provides the event dispatch and the feature FSM
    (prompt protocol, vim spans — the TermLogParser semantics); the
    overrides mirror VT2Output's stdout routing.  Every emission is
    recorded as ``(turn_idx, delay_before, text)``.
    """

    def __init__(self, speed: float = 3.0, cleanup_cmdline: bool = True,
                 print_vim: bool = False):
        super().__init__()
        self.speed = speed
        self.cleanup_cmdline = cleanup_cmdline
        self.print_vim = print_vim
        self.schedule = []  # (turn_idx, delay_before_s, text)
        self._pend = 0.0
        self._cl = _CmdLineCodes()

    # -- schedule primitives --------------------------------------------

    def _sleep(self, d: float):
        self._pend += d

    def _out(self, s: str):
        if not s:
            return
        tix = self._rec.turn_idx if self._rec is not None else -1
        if (
            self._pend == 0.0
            and self.schedule
            and self.schedule[-1][0] == tix
        ):
            last = self.schedule[-1]
            self.schedule[-1] = (tix, last[1], last[2] + s)
        else:
            self.schedule.append((tix, self._pend, s))
            self._pend = 0.0

    # -- output routing (reference terminalreplay.py:30-104) ------------

    def _on_print(self, s: str):
        if self.in_prompt:
            if self.cleanup_cmdline:
                for ch in s:
                    self._cl.put(ord(ch))
            else:
                for ch in s:
                    self._sleep(0.2 * (1.0 / self.speed))
                    self._out(ch)
        elif self.in_vim:
            if self.print_vim:
                for ch in s:
                    if 0x21 <= ord(ch) <= 0x7D:
                        self._sleep(0.2 * (0.5 / self.speed))
                    self._out(ch)
        else:
            self._out(s)
        super()._on_print(s)

    def _on_exec(self, code: int):
        if self.in_prompt:
            if self.cleanup_cmdline:
                self._cl.ctrl(code)
            else:
                if code == 0x0D:
                    self._sleep(0.8)
                self._out(chr(code))
                self._sleep(0.1 * (1.0 / self.speed))
        elif self.in_vim and not self.print_vim:
            pass
        else:
            self._out(chr(code))
        super()._on_exec(code)

    def _on_csi(self, line, private, params, interm, final, pos):
        if final == "n" or (final == "c" and params in ("", "0")):
            pass  # would trigger a terminal response; discard
        elif self.in_prompt:
            if self.cleanup_cmdline:
                self._cl.csi(params, interm, final)
            else:
                self._sleep(0.1 * (1.0 / self.speed))
                self._out("\x1b[" + private + params + interm + final)
        elif self.in_vim and not self.print_vim:
            pass
        else:
            self._out("\x1b[" + private + params + interm + final)
        super()._on_csi(line, private, params, interm, final, pos)

    def _on_esc(self, line, interm, final, pos):
        # reference terminalreplay.py:72-78: only the vim gate applies
        if not (self.in_vim and not self.print_vim):
            self._out("\x1b" + interm + final)
        super()._on_esc(line, interm, final, pos)

    # -- prompt pacing (reference terminalreplay.py:148-176) ------------

    def _ev_prompt_active(self):
        if not self.cleanup_cmdline:
            self._sleep(0.8)
        self._cl = _CmdLineCodes()
        super()._ev_prompt_active()

    def _ev_prompt_end(self):
        if self.cleanup_cmdline:
            self._type_cmd_line()
        super()._ev_prompt_end()

    def _type_cmd_line(self):
        codes = self._cl.codes
        if not codes:
            return
        try:
            i = codes.index(0x20)
        except ValueError:
            i = -1  # no prompt part; type the whole line (deviation)
        self._out("".join(chr(c) for c in codes[: i + 1]))
        self._sleep(0.8)
        for c in codes[i + 1 :]:
            if c == 0x0A:
                self._sleep(0.8)
            self._out(chr(c))
            self._sleep(0.2 * (1.0 / self.speed))


def normalize_schedule(entries) -> list:
    """Collapse a raw (turn_idx, delay, text) stream to conversation-
    level (delay, text) chunks: zero-delay neighbours merge."""
    out = []
    for e in entries:
        delay, text = (e[-2], e[-1])
        if out and delay == 0.0:
            out[-1] = (out[-1][0], out[-1][1] + text)
        else:
            out.append((delay, text))
    return out


def replay_schedule(lines: list, speed: float = 3.0,
                    cleanup_cmdline: bool = True,
                    print_vim: bool = False) -> list:
    """One conversation's raw newline-terminated byte lines → the
    normalized typing schedule ``[(delay_s, text), ...]``."""
    sc = ReplayScanner(speed=speed, cleanup_cmdline=cleanup_cmdline,
                       print_vim=print_vim)
    for i, raw in enumerate(lines):
        eol = raw.endswith(b"\n")
        if eol:
            raw = raw[:-1]
        sc.scan_turn(i, raw.decode("utf-8"), has_eol=eol)
    return normalize_schedule(sc.schedule)


def replay_table(tbl: pa.Table, speed: float = 3.0,
                 cleanup_cmdline: bool = True,
                 print_vim: bool = False) -> pa.Table:
    """Per-turn replay columns over a transcripts table (any number of
    conversations): (conv_id, turn_idx, replay_text, replay_delay).

    ``replay_text`` is the exact text the replay sink writes while
    processing that turn (prompt regions therefore land on the turn
    where the prompt *ends*); ``replay_delay`` is the total simulated
    typing pause attributed to the turn.  Pure per-conversation state —
    runs inside ``stream_replay``'s per-conversation calls at scale.
    """
    tbl = tbl.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    conv_ids = tbl.column("conv_id").to_pylist()
    turn_idxs = tbl.column("turn_idx").to_pylist()
    texts = tbl.column("text").to_pylist()
    eols = (
        tbl.column("has_eol").to_pylist()
        if "has_eol" in tbl.schema.names
        else [True] * len(texts)
    )
    out_c, out_t, out_text, out_delay = [], [], [], []
    i, n = 0, len(conv_ids)
    while i < n:
        j = i
        cid = conv_ids[i]
        while j < n and conv_ids[j] == cid:
            j += 1
        sc = ReplayScanner(speed=speed, cleanup_cmdline=cleanup_cmdline,
                           print_vim=print_vim)
        per_text = {}
        per_delay = {}
        for r in range(i, j):
            sc.scan_turn(turn_idxs[r], texts[r], has_eol=bool(eols[r]))
        for tix, delay, text in sc.schedule:
            per_text[tix] = per_text.get(tix, "") + text
            per_delay[tix] = per_delay.get(tix, 0.0) + delay
        for r in range(i, j):
            tix = turn_idxs[r]
            out_c.append(cid)
            out_t.append(tix)
            out_text.append(per_text.get(tix, ""))
            out_delay.append(per_delay.get(tix, 0.0))
        i = j
    return pa.table(
        {
            "conv_id": pa.array(out_c, pa.string()),
            "turn_idx": pa.array(out_t, pa.int32()),
            "replay_text": pa.array(out_text, pa.string()),
            "replay_delay": pa.array(out_delay, pa.float64()),
        }
    )


def stream_replay(src, n_buckets: int = 64, **kw):
    """Replay extraction over a path or Dataset of turns: one
    ``replay_table`` call per file or conv bucket
    (``map_keyed``; a conversation never spans calls)."""
    from ..sources.cache import map_keyed

    return map_keyed(
        src,
        lambda t: replay_table(t, **kw),
        n_buckets=n_buckets,
        columns=["conv_id", "turn_idx", "text"],
    )


def play(schedule, out, sleep_fn=None):
    """Walk a normalized schedule, writing chunks to ``out`` with the
    simulated pacing; ``sleep_fn=None`` disables pacing (--instant)."""
    for delay, text in schedule:
        if sleep_fn is not None and delay > 0:
            sleep_fn(delay)
        out.write(text)
        if hasattr(out, "flush"):
            out.flush()
