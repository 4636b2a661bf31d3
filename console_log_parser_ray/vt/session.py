"""Per-conversation session scan.

Walks one conversation's turns in ``turn_idx`` order and converts each
raw terminal line into a structured record: the plain text the turn
contributes to the reconstructed session transcript (``clean_text``),
prompt/command extraction, vim-session spans and command-row numbering.

This is the stateful heart of the pipeline: ``stages.scan`` runs one
scanner per conversation over each partition's, file's or bucket's
table (``scan_bucket_table``), taking the exact walk below only for
lines its state-checked fast paths do not cover.  Behavior matches the
reference's working path -- ``TermLogParser`` + ``VT2Html`` + a
plain-text document (reference terminalparser.py:101-384,
terminal2html.py:558-682) -- as verified turn-for-turn by the
conformance tests against the in-process reference oracle.

State model: a per-conversation feature FSM (prompt protocol, vim
spans, application mode) layered over the escape-sequence tokenizer.
Cross-line state never crosses conversations, which is what makes the
conv_id-hash shuffle the only data movement the parse needs.
"""

from __future__ import annotations

from . import patterns as P
from .editline import EditLine
from .tokenizer import LineTokenizer

# Feature-FSM states (mirror reference terminalparser.py:18-24)
NORMAL = 0
PROMPT_OSC = 1
PROMPT_IMMINENT = 2
PROMPT = 3
VIM_START = 4
VIM_ONELINE = 5
VIM_ENDING = 7

_VIM_STATES = (VIM_START, VIM_ONELINE, VIM_ENDING)


class TurnRecord:
    __slots__ = (
        "turn_idx",
        "clean_text",
        "cmd_count",
        "cmd_number",
        "is_prompt",
        "prompt_active",
        "command",
        "cwd",
        "in_vim",
        "vim_started",
        "vim_ended",
        "vim_session_id",
        "osc_title",
        "warnings",
    )

    def __init__(self, turn_idx):
        self.turn_idx = turn_idx
        self.clean_text = ""
        self.cmd_count = 0
        self.cmd_number = 0
        self.is_prompt = False
        self.prompt_active = False
        self.command = None
        self.cwd = ""
        self.in_vim = False
        self.vim_started = False
        self.vim_ended = False
        self.vim_session_id = -1
        self.osc_title = ""
        self.warnings = 0


def prompt_header_cwd(line: bytes):
    """The cwd of a MINGW prompt header at the start of ``line``
    (reference terminalparser.py:112-118), or None."""
    m = P.PROMPT_HEADER.match(line) if b"MINGW64" in line else None
    return m.group("cwd").decode() if m else None


def osc_prompt_hit(line: bytes, start: int, osc_string: str):
    """The prompt-OSC inline trigger: the leftmost ``PROMPT`` match at
    or after ``start`` whose cwd the OSC string vouches for, as
    ``(pos, "osc_prompt", cwd)``; None if there is none."""
    while True:
        m = P.PROMPT.search(line, start)
        if m is None:
            return None
        cwd = m.group("cwd").decode()
        if osc_string.endswith(cwd[1:]) or cwd == "~":
            return (m.start(), "osc_prompt", cwd)
        start = m.start() + 1


class SessionScanner:
    """Scan one conversation; produces one TurnRecord per input turn."""

    def __init__(self, suppress=(), collect_stats=False):
        self.tok = LineTokenizer()
        self.tlp = NORMAL
        self.osc_string = ""
        self.vim_2200_seen = False
        self.next_vim = -1
        # app-mode pairing state (reference terminalparser.py:55-77)
        self.app_active = False
        self.ckm_set_pos = -1
        self.ckm_reset_pos = -1

        # output-side state (reference terminal2html.py:566-574)
        self.cmd_line = EditLine()
        self.term_line = EditLine()
        self.in_prompt = False
        self.in_vim = False
        self.prompt_count = 0

        # document state (reference terminal2html.py:200-428)
        self.cmd_count = 0
        self.cmd_number = 0
        self.suppress = frozenset(suppress)
        self.suppressed = False

        self.vim_session_seq = 0

        self.collect_stats = collect_stats
        self.stats = (
            {
                "control_function": {},
                "escape": {},
                "csi": {},
                "dcs_function": {},
            }
            if collect_stats
            else None
        )
        self.osc_seen = set()
        self.dcs_seen = set()

        self._line = b""
        self._rec = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def scan_turn(self, turn_idx: int, text: str, has_eol: bool = True) -> TurnRecord:
        """Process one turn (line without trailing newline)."""
        raw = text.encode("utf-8", "surrogatepass")
        if has_eol:
            raw += b"\n"
        return self._parse_line(turn_idx, raw)

    def finish(self):
        """End of conversation (no flush: matches reference EOF behavior)."""
        return None

    # ------------------------------------------------------------------
    # line protocol (port of reference terminalparser.py:101-261)
    # ------------------------------------------------------------------

    def _parse_line(self, turn_idx: int, line: bytes) -> TurnRecord:
        rec = TurnRecord(turn_idx)
        self._rec = rec
        self._line = line
        # Positional checks advance strictly left-to-right over the line,
        # like the reference's per-byte loop; this cursor marks how far
        # they have been evaluated.
        self._scan_pos = 0
        self._trig_cache = {}

        # Literal-substring gates: each of the line-level regexes can
        # only match when a fixed literal is present, and `in` on bytes
        # is a memchr-speed scan, so most lines skip the regexes
        # entirely.  Semantics are unchanged (a gated-out regex could
        # never have matched).
        tlp = self.tlp
        if tlp == PROMPT_OSC:
            cwd = self.prompt_header(prompt_header_cwd(line))
            if cwd is not None:
                rec.cwd = cwd
        elif tlp == PROMPT:
            self._emit_normal()
            self.tlp = NORMAL
        elif tlp == VIM_START:
            if (b"\x1b[23;0;0t" in line and P.VIM_END_1.match(line)) or (
                b"\x1b[?1l\x1b>" in line and P.VIM_END_2.match(line)
            ):
                self.tlp = VIM_ENDING
        elif tlp == VIM_ENDING:
            self._emit_normal()
            self.tlp = NORMAL

        if self.tlp == NORMAL and b"$" in line:
            m = P.PROMPT_LINESTART.match(line)
            if m:
                rec.cwd = m.group("cwd").decode()
                self._emit_prompt_start()
                self.tlp = PROMPT_IMMINENT

        # vim-start detection (reference terminalparser.py:155-199)
        if self.tlp not in _VIM_STATES:
            props = {}
            m2 = None
            m0 = (
                P.VIM_START_0.match(line)
                if b"hint: Waiting" in line[:96]
                else None
            )
            m1 = (
                P.VIM_START_1.match(line)
                if b"\x1b[22;2t\x1b[22;1t" in line
                else None
            )
            if m1:
                self.vim_2200_seen = True
                if m1.group("height"):
                    props["height"] = m1.group("height").decode()
            else:
                self.vim_2200_seen = False
                m2 = (
                    P.VIM_START_2.match(line)
                    if b"\x1b[2;1H\xe2\x96\xbd\x1b[6n" in line
                    else None
                )
                if m2:
                    if m2.group("height"):
                        props["height"] = m2.group("height").decode()
                    if m2.group("file"):
                        props["file"] = m2.group("file").decode()
            if m0 or m1 or m2:
                self._emit_vim_start(props)
                self._enter_vim_state(line)

        # byte-positional walk of the line's escape-sequence events
        self._walk(line)
        return self._end_turn(rec)

    def prompt_header(self, cwd):
        """MINGW header check at the start of a line in PROMPT_OSC: a
        header cwd (``prompt_header_cwd``) the OSC string vouches for
        makes the prompt imminent and is returned; otherwise None."""
        if cwd is not None and (self.osc_string.endswith(cwd[1:]) or cwd == "~"):
            self.tlp = PROMPT_IMMINENT
            return cwd
        return None

    def _end_turn(self, rec: TurnRecord) -> TurnRecord:
        """Turn bookkeeping once the line has been applied."""
        rec.cmd_count = self.cmd_count
        rec.cmd_number = self.cmd_number
        if self.in_vim or rec.vim_started:
            rec.in_vim = True
            rec.vim_session_id = self.vim_session_seq
        self._rec = None
        return rec

    def _enter_vim_state(self, line: bytes):
        """One-line-session tail check (reference terminalparser.py:185-196)."""
        tail = line[-70:]
        if P.VIM_END_1.match(tail) or P.VIM_END_2.match(tail):
            self.tlp = VIM_ONELINE
        else:
            self.tlp = VIM_START

    # ------------------------------------------------------------------
    # positional event walk
    # ------------------------------------------------------------------

    def _walk(self, line: bytes, start: int = 0):
        events = self.tok.feed_line(line, start)
        for ev in events:
            kind = ev[0]
            if kind == "print":
                self._feed_print(line, ev[1], ev[2], ev[3])
            elif kind == "exec":
                self._apply_triggers(line, ev[2])
                self._on_exec(ev[1])
            elif kind == "csi":
                self._apply_triggers(line, ev[5])
                self._on_csi(line, ev[1], ev[2], ev[3], ev[4], ev[5])
            elif kind == "esc":
                self._apply_triggers(line, ev[3])
                self._on_esc(line, ev[1], ev[2], ev[3])
            elif kind == "osc":
                self._apply_triggers(line, ev[2])
                self._on_osc(ev[1])
            elif kind == "dcs_hook":
                if ev[2] >= 0:
                    self._apply_triggers(line, ev[2])
                if self.collect_stats:
                    d = self.stats["dcs_function"]
                    k = "EscP" + ev[1]
                    d[k] = d.get(k, 0) + 1
            elif kind == "dcs_end":
                if ev[2] >= 0:
                    self._apply_triggers(line, ev[2])
                self.dcs_seen.add(ev[1])

    def _triggers_possible(self) -> bool:
        return self.tlp in (PROMPT_OSC, PROMPT_IMMINENT) or self.next_vim > 0

    def _next_trigger(self, line: bytes, p: int, limit: int):
        """Earliest pending positional trigger in [p, limit], or None.

        Mirrors the per-byte checks at the top of the reference's parse
        loop (reference terminalparser.py:203-258): the prompt-OSC
        inline match, the '$' check while a prompt is imminent, and the
        re-entry position of a second vim session on the same line.

        Searches are memoized per line: callers probe with
        monotonically increasing ``p``, and a leftmost match found from
        an earlier start position stays the leftmost for any later
        start at or before it (and a failed search stays failed), so
        one regex search serves the whole line instead of one per byte.
        """
        if self.tlp == PROMPT_OSC:
            cached = self._trig_cache.get("osc_prompt")
            if cached is not None:
                from_p, hit = cached
                if hit is not None and hit[0] >= p:
                    return hit if hit[0] <= limit else None
                if hit is None and p >= from_p:
                    return None
            hit = osc_prompt_hit(line, p, self.osc_string)
            self._trig_cache["osc_prompt"] = (p, hit)
            if hit is not None and hit[0] <= limit:
                return hit
            return None
        if self.tlp == PROMPT_IMMINENT:
            cached = self._trig_cache.get("dollar")
            if cached is not None and (
                (cached[1] is not None and cached[1] >= p) or
                (cached[1] is None and p >= cached[0])
            ):
                q = cached[1] if cached[1] is not None else -1
            else:
                q = line.find(b"$", p)
                self._trig_cache["dollar"] = (p, q if q >= 0 else None)
            dollar = (q, "dollar", None) if 0 <= q <= limit else None
            if self.next_vim > 0 and p <= self.next_vim <= limit:
                if dollar is None or self.next_vim < dollar[0]:
                    return (self.next_vim, "next_vim", None)
            return dollar
        if self.next_vim > 0 and p <= self.next_vim <= limit:
            return (self.next_vim, "next_vim", None)
        return None

    def _fire_trigger(self, line: bytes, trig):
        pos, kind, arg = trig
        if kind == "osc_prompt":
            self.tlp = PROMPT_IMMINENT
            self._rec.cwd = arg
        elif kind == "dollar":
            self._emit_prompt_active()
            self.tlp = PROMPT
        elif kind == "next_vim":
            self._fire_next_vim(line, pos)

    def _apply_triggers(self, line: bytes, action_pos: int):
        """Fire all pending triggers at byte positions <= action_pos.

        ``action_pos`` is the byte whose input runs the pending event's
        action; the reference evaluates its per-byte checks before every
        input, so every check position up to and including it is due.
        """
        if self._triggers_possible():
            p = self._scan_pos
            while True:
                trig = self._next_trigger(line, p, action_pos)
                if trig is None:
                    break
                self._fire_trigger(line, trig)
                p = trig[0] + 1
                if not self._triggers_possible():
                    break
        if action_pos >= self._scan_pos:
            self._scan_pos = action_pos + 1

    def _feed_print(self, line: bytes, text: str, start: int, end: int):
        """Route a print run, splitting at positional trigger points."""
        if not self._triggers_possible():
            self._on_print(text)
            self._scan_pos = end
            return
        if (end - start) == len(text):
            # ASCII run: byte positions == char positions, so jump
            # straight between (memoized) trigger positions in bulk
            pos = start
            while pos < end:
                if not self._triggers_possible():
                    self._on_print(text[pos - start :])
                    break
                trig = self._next_trigger(line, pos, end - 1)
                if trig is None:
                    self._on_print(text[pos - start :])
                    break
                tpos = trig[0]
                if tpos > pos:
                    self._on_print(text[pos - start : tpos - start])
                self._fire_trigger(line, trig)
                # the trigger byte itself is input (and printed) under
                # the post-trigger state; no second trigger fires on it
                self._on_print(text[tpos - start])
                pos = tpos + 1
            self._scan_pos = end
            return
        # Multibyte run: walk char by char tracking byte positions
        pos = start
        buf = []
        for idx, ch in enumerate(text):
            if not self._triggers_possible():
                buf.append(text[idx:])
                break
            trig = self._next_trigger(line, pos, pos)
            if trig is not None:
                if buf:
                    self._on_print("".join(buf))
                    buf = []
                self._fire_trigger(line, trig)
            buf.append(ch)
            pos += len(ch.encode("utf-8"))
        if buf:
            self._on_print("".join(buf))
        self._scan_pos = end

    # ------------------------------------------------------------------
    # output routing (port of reference terminal2html.py:589-652)
    # ------------------------------------------------------------------

    def _on_print(self, s: str):
        if self.in_prompt:
            self.cmd_line.put_text(s)
        elif self.in_vim:
            pass
        else:
            self.term_line.put_text(s)

    def _on_exec(self, code: int):
        if self.collect_stats:
            d = self.stats["control_function"]
            d[code] = d.get(code, 0) + 1
        if self.in_prompt:
            self.cmd_line.ctrl(code)
        elif self.in_vim:
            pass
        elif code == 0x0A:
            self.term_line.ctrl(code)
            self._flush_term_line()
        else:
            self.term_line.ctrl(code)

    def _on_csi(self, line, private, params, interm, final, pos):
        if self.collect_stats:
            d = self.stats["csi"]
            k = "Esc[" + private + params + interm + final
            d[k] = d.get(k, 0) + 1
        # VT2Html routing (handler runs before the feature checks)
        if final == "n" or (final == "c" and params in ("", "0")):
            pass  # would trigger a terminal response; discard
        elif self.in_prompt:
            self.cmd_line.csi(private, params, interm, final, keep_sgr=False)
        elif self.in_vim:
            pass
        else:
            self.term_line.csi(private, params, interm, final, keep_sgr=True)

        # feature checks (reference terminalparser.py:330-361)
        if (
            final == "t"
            and params == "23;0;0"
            and private == ""
            and interm == ""
        ):
            if self.vim_2200_seen and self.tlp in _VIM_STATES:
                self._emit_normal()
                self.tlp = NORMAL
                m = P.PROMPT_POSTVIM.match(line, pos + 1)
                if m:
                    self._rec.cwd = m.group("cwd").decode()
                    self._emit_prompt_start()
                    self.tlp = PROMPT_IMMINENT
                self.next_vim = line.find(P.VIM_START_LIT, pos)
        elif final == "h" and params == "1" and private == "?" and interm == "":
            self.ckm_set_pos = pos
        elif final == "l" and params == "1" and private == "?" and interm == "":
            self.ckm_reset_pos = pos

    def _on_esc(self, line, interm, final, pos):
        if self.collect_stats:
            d = self.stats["escape"]
            k = "Esc" + interm + final
            d[k] = d.get(k, 0) + 1
        # VT2Html ignores plain escape sequences; feature checks follow
        # (reference terminalparser.py:301-319)
        if final == "=" and interm == "":
            if self.ckm_set_pos == pos - 2 and not self.app_active:
                self.app_active = True
        elif final == ">" and interm == "":
            if self.ckm_reset_pos == pos - 2 and self.app_active:
                self.app_active = False
                if self.tlp not in _VIM_STATES:
                    m = P.PROMPT_INLINE.match(line, pos + 1)
                    if m:
                        self._rec.cwd = m.group("cwd").decode()
                        self._emit_prompt_start()
                        self.tlp = PROMPT_IMMINENT

    def _on_osc(self, s: str):
        self.osc_seen.add(s)
        self.osc_string = s
        self._trig_cache.pop("osc_prompt", None)
        if s.startswith("0;"):
            self._rec.osc_title = s[2:]
            self._emit_prompt_osc()
            self.tlp = PROMPT_OSC

    # ------------------------------------------------------------------
    # feature events (port of reference terminalparser.py:263-291 emit()
    # wired to VT2Html's listener, terminal2html.py:655-682)
    # ------------------------------------------------------------------

    def _emit_prompt_osc(self):
        if self.tlp in _VIM_STATES:
            self._ev_vim_end()
        self._ev_prompt_start()

    def _emit_prompt_start(self):
        self._ev_prompt_start()

    def _emit_prompt_active(self):
        self._ev_prompt_active()

    def _emit_vim_start(self, props):
        self._ev_vim_start(props)

    def _emit_normal(self):
        if self.tlp == PROMPT:
            self._ev_prompt_end()
        elif self.tlp in _VIM_STATES:
            self._ev_vim_end()

    def _fire_next_vim(self, line: bytes, pos: int):
        """Second vim session in the same line (reference
        terminalparser.py:220-258)."""
        props = {}
        rest = line[pos:]
        if rest.startswith(P.VIM_START_LIT):
            m1 = P.VIM_START_1.match(rest)
            if m1:
                self.vim_2200_seen = True
                if m1.group("height"):
                    props["height"] = m1.group("height").decode()
            else:
                self.vim_2200_seen = False
                m2 = P.VIM_START_2.match(rest)
                if m2:
                    if m2.group("height"):
                        props["height"] = m2.group("height").decode()
                    if m2.group("file"):
                        props["file"] = m2.group("file").decode()
        self._emit_vim_start(props)
        self._enter_vim_state(line)
        # note: next_vim is deliberately not reset here (reference quirk)

    # -- listener methods (VT2Html semantics) ---------------------------

    def _ev_prompt_start(self):
        if self.term_line.size() > 0:
            self._flush_term_line()
        self.prompt_count += 1
        self._new_cmd_row()
        self._rec.is_prompt = True

    def _ev_prompt_active(self):
        ptls = self.term_line.printable_size()
        if self.term_line.size() > 0:
            self._flush_term_line()
        self.in_prompt = True
        self.cmd_line.reset()
        self.cmd_line.set_prefix_len(ptls)
        self._rec.prompt_active = True

    def _ev_prompt_end(self):
        text, command, warnings = self.close_cmd_line()
        self._write(text)
        self._rec.warnings += warnings
        self._rec.command = command

    def close_cmd_line(self):
        """End the prompt: the command line's ``(text, command,
        warnings)``, its pending warnings taken."""
        cl = self.cmd_line
        text = cl.render()
        warnings = cl.warnings
        cl.warnings = 0
        self.in_prompt = False
        cmd = text[1:] if text.startswith("$") else text
        return text, cmd.strip("\n").strip(), warnings

    def _ev_vim_start(self, props):
        self.open_vim()
        self._rec.vim_started = True
        self._rec.in_vim = True
        self._rec.vim_session_id = self.vim_session_seq

    def open_vim(self):
        """Start a vim session without a record: output is dropped until
        it ends, and its turns carry the next session id."""
        self.in_vim = True
        self.vim_session_seq += 1

    def _ev_vim_end(self):
        self.close_vim()
        self._rec.vim_ended = True
        # document.vim_session(): plain-text sink writes nothing

    def close_vim(self):
        """End the vim session without a record: output reaches the
        terminal line again."""
        self.in_vim = False

    # -- document (plain-text sink semantics) ---------------------------

    def _new_cmd_row(self):
        self.cmd_count += 1
        if self.cmd_count in self.suppress:
            self.suppressed = True
            return
        self.suppressed = False
        self.cmd_number += 1

    def _flush_term_line(self):
        self._write(self.term_line.render())
        self._rec.warnings += self.term_line.warnings
        self.term_line.warnings = 0
        self.term_line.reset()

    def _write(self, s: str):
        if not self.suppressed and s:
            self._rec.clean_text += s
