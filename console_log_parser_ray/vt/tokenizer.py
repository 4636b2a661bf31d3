"""Byte-level DEC-ANSI / VT500 escape-sequence tokenizer.

Converts one raw terminal line (bytes) into a list of positioned events.
Semantics follow the public DEC ANSI parser description at
https://vt100.net/emu/dec_ansi_parser with the same deviations the
reference implementation makes (reference vtparser.py:141-476):

* OSC strings terminate on BEL as well as ST / CAN / SUB / ESC.
* Only the GROUND state decodes UTF-8 multibyte sequences; in all other
  states GR bytes 0xA0-0xFF are aliased to GL 0x20-0x7F for the event
  lookup while the *original* byte value is passed to the action.
* Invalid UTF-8 sequences are dropped and parsing continues with the
  current byte (reference vtparser.py:586-592).
* Entering DCS_IGNORE runs the ``hook`` entry action (reference
  vtparser.py:441), so an aborted DCS still records its function key.

Unlike the reference -- which walks a table-driven state machine one
byte at a time -- this tokenizer consumes printable runs and complete,
well-formed escape sequences with compiled regexes and only falls back
to an exact per-byte state machine for rare malformed input (embedded
C0 controls inside sequences, GR bytes inside sequences, sequences
split across line boundaries).  State carries across lines within one
conversation; call :meth:`LineTokenizer.feed_line` for each line in
``turn_idx`` order.

Event tuples (positions are byte offsets; ``end`` is one past the byte
that completed the event -- for sequences that is the position at which
the reference would run the dispatch action, minus one):

* ``("print", text:str, start:int, end:int)``   glyphs to display
* ``("exec", code:int, pos:int)``               C0/C1 control executed
* ``("csi", private, params, interm, final, final_pos)``
* ``("esc", interm, final, final_pos)``
* ``("osc", string, end_pos)``                  complete OSC string
* ``("dcs_hook", key:str, pos)``                DCS function selected
  (fires at passthrough entry, like the reference's ``hook`` action,
  even if the payload never terminates; key is private+params+interm+
  final)
* ``("dcs_end", payload:str, pos)``             DCS string terminated
"""

from __future__ import annotations

import re

# Parser states (subset of ids; names per the public state diagram)
GROUND = 0
ESCAPE = 1
ESCAPE_INTERMEDIATE = 2
CSI_ENTRY = 3
CSI_PARAM = 4
CSI_INTERMEDIATE = 5
CSI_IGNORE = 6
DCS_ENTRY = 7
DCS_PARAM = 8
DCS_INTERMEDIATE = 9
DCS_PASSTHROUGH = 10
DCS_IGNORE = 11
OSC_STRING = 12
SOS_PM_APC_STRING = 13

# --- fast-path regexes (bytes) -------------------------------------------

# A run of GROUND printables: ASCII 0x20-0x7F or a valid UTF-8 multibyte
# sequence.  DEL (0x7F) prints in GROUND per the reference's event map.
# NOTE: \xc2\x80-\xc2\x9f (decoded U+0080-U+009F) are excluded: the
# reference feeds the DECODED code point to the event map, where those
# values carry C1 control semantics (reference vtparser.py:583-598 +
# the C1 entries of the GROUND event map).
_RUN = re.compile(
    rb"(?:[\x20-\x7f]"
    rb"|\xc2[\xa0-\xbf]"
    rb"|[\xc3-\xdf][\x80-\xbf]"
    rb"|\xe0[\xa0-\xbf][\x80-\xbf]"
    rb"|[\xe1-\xec][\x80-\xbf]{2}"
    rb"|\xed[\x80-\x9f][\x80-\xbf]"
    rb"|[\xee-\xef][\x80-\xbf]{2}"
    rb"|\xf0[\x90-\xbf][\x80-\xbf]{2}"
    rb"|[\xf1-\xf3][\x80-\xbf]{3}"
    rb"|\xf4[\x80-\x8f][\x80-\xbf]{2})+"
)

# Complete CSI with a pure-ASCII body and no embedded C0 controls.
_CSI = re.compile(rb"\x1b\[([\x30-\x3f]*)([\x20-\x2f]*)([\x40-\x7e])")

# Complete OSC: body of putable/ignorable ASCII bytes, terminated by BEL
# or (via lookahead, left unconsumed) ESC, or running to end of data.
_OSC = re.compile(rb"\x1b\]([\x00-\x06\x08-\x17\x19\x1c-\x7f]*?)(\x07|(?=\x1b)|\Z)")

# Complete DCS: params/intermediates, final, payload, terminated by ESC /
# CAN / SUB (left unconsumed) or end of data.  0x7F allowed in payload
# (ignored by the put action).
_DCS = re.compile(
    rb"\x1bP([\x30-\x3f]*)([\x20-\x2f]*)([\x40-\x7e])"
    rb"([\x00-\x17\x19\x1c-\x7f]*?)(?=[\x18\x1a\x1b]|\Z)"
)

# SOS / PM / APC string: ignored until ST (ESC-consumed by main loop) or
# CAN / SUB, or end of data.
_SOS = re.compile(rb"\x1b[X\^_]([\x00-\x17\x19\x1c-\x7f]*?)(?=[\x18\x1a\x1b]|\Z)")

# Generic short escape: optional intermediates then a final byte.
_ESC2 = re.compile(rb"\x1b([\x20-\x2f]*)([\x30-\x7e])")

# Bytes the OSC put action keeps (0x20-0x7F after GL aliasing)
_OSC_KEEP = frozenset(range(0x20, 0x80))
# Deletion table for the fast path (its body class is pure ASCII, so
# dropping the ignored C0 bytes and decoding latin-1 equals chr-per-byte)
_OSC_DROP = bytes(b for b in range(0x100) if b not in _OSC_KEEP)

_C0_EXEC = frozenset(list(range(0x00, 0x18)) + [0x19] + list(range(0x1C, 0x20)))


def _csi_classify(body0: bytes, interm: bytes, final: int):
    """Classify a regex-matched CSI body exactly like the state machine.

    Returns (private, params, interm, final) strings for a dispatched
    sequence, or None if the state machine would route it through
    CSI_IGNORE (no dispatch).
    """
    private = ""
    params = ""
    i = 0
    n = len(body0)
    # CSI_ENTRY: one leading private marker 0x3C-0x3F allowed
    if i < n and 0x3C <= body0[i] <= 0x3F:
        private = chr(body0[i])
        i += 1
    # CSI_PARAM: digits and ';' only; ':' or another private marker kills
    while i < n:
        b = body0[i]
        if 0x30 <= b <= 0x39 or b == 0x3B:
            params += chr(b)
            i += 1
        else:
            return None  # ':' (0x3A) or 0x3C-0x3F after params -> CSI_IGNORE
    # Intermediates were matched by the regex as [\x20-\x2f]* already; a
    # digit after an intermediate can't appear here because the regex
    # groups are ordered.  So the sequence dispatches.
    return (private, params, interm.decode("ascii"), chr(final))


class LineTokenizer:
    """Stateful tokenizer; one instance per conversation."""

    __slots__ = (
        "state",
        "private",
        "interm",
        "params",
        "osc_buf",
        "dcs_key",
        "dcs_buf",
        "utf8_need",
        "utf8_acc",
        "utf8_raw",
    )

    def __init__(self):
        self.state = GROUND
        self.private = ""
        self.interm = ""
        self.params = ""
        self.osc_buf = []
        self.dcs_key = ""
        self.dcs_buf = []
        # UTF-8 accumulator for the slow path in GROUND
        self.utf8_need = 0
        self.utf8_acc = 0
        self.utf8_raw = b""

    @property
    def dirty(self) -> bool:
        return self.state != GROUND or self.utf8_need > 0

    def feed_line(self, data: bytes, start: int = 0) -> list:
        """Events of ``data[start:]``, with positions absolute in ``data``.

        A caller that has applied a line's prefix itself resumes the
        walk at ``start``; the tokenizer must be in the state it would
        have reached there (GROUND, for a sequence boundary).
        """
        events = []
        i = start
        n = len(data)
        append = events.append
        while i < n:
            if self.state == GROUND and self.utf8_need == 0:
                m = _RUN.match(data, i)
                if m is not None:
                    append(("print", m.group().decode("utf-8"), i, m.end()))
                    i = m.end()
                    continue
                b = data[i]
                if b == 0x1B:
                    i = self._fast_escape(data, i, append)
                    continue
                if b in _C0_EXEC or b == 0x18 or b == 0x1A:
                    append(("exec", b, i))
                    i += 1
                    continue
                # Stray 0x80-0xC1 / 0xF5+ byte or invalid UTF-8: slow path
                i = self._slow(data, i, append)
            else:
                i = self._slow(data, i, append)
        return events

    # -- fast escape handling ---------------------------------------------

    def _fast_escape(self, data: bytes, i: int, append) -> int:
        nxt = data[i + 1] if i + 1 < len(data) else None
        if nxt == 0x5B:  # '['  CSI
            m = _CSI.match(data, i)
            if m is not None:
                cls = _csi_classify(m.group(1), m.group(2), m.group(3)[0])
                if cls is not None:
                    append(("csi", *cls, m.end() - 1))
                # CSI_IGNORE path: consumed, no dispatch
                return m.end()
            return self._slow(data, i, append)
        if nxt == 0x5D:  # ']'  OSC
            m = _OSC.match(data, i)
            if m is not None:
                body = m.group(1)
                s = body.translate(None, _OSC_DROP).decode("latin-1")
                if m.group(2) == b"" and m.end() == len(data):
                    # Unterminated: OSC continues on the next line
                    self.state = OSC_STRING
                    self.osc_buf = [s]
                    return m.end()
                append(("osc", s, m.end() - (1 if m.group(2) == b"\x07" else 0)))
                return m.end()
            return self._slow(data, i, append)
        if nxt == 0x50:  # 'P'  DCS
            m = _DCS.match(data, i)
            if m is not None:
                cls = _csi_classify(m.group(1), m.group(2), m.group(3)[0])
                if cls is None:
                    # Would route through DCS_IGNORE (with its entry-hook
                    # quirk): handle exactly in the slow path.
                    return self._slow(data, i, append)
                private, params, interm, final = cls
                payload = "".join(chr(b) for b in m.group(4) if b != 0x7F)
                key = private + params + interm + final
                hook_pos = m.start() + 2 + len(m.group(1)) + len(m.group(2))
                append(("dcs_hook", key, hook_pos))
                if m.end() == len(data):
                    # Unterminated: DCS passthrough continues next line
                    self.state = DCS_PASSTHROUGH
                    self.dcs_key = key
                    self.dcs_buf = [payload]
                    return m.end()
                # Terminator (CAN/SUB/ESC) left unconsumed; the unhook
                # fires before it is processed, matching reference order.
                append(("dcs_end", payload, m.end()))
                return m.end()
            return self._slow(data, i, append)
        if nxt in (0x58, 0x5E, 0x5F):  # SOS / PM / APC
            m = _SOS.match(data, i)
            if m is not None:
                if m.end() >= len(data):
                    self.state = SOS_PM_APC_STRING
                return m.end()
            return self._slow(data, i, append)
        m = _ESC2.match(data, i)
        if m is not None and m.group(1) == b"":
            f = m.group(2)[0]
            # Finals that dispatch from ESCAPE (no intermediates):
            # 0x30-0x4F, 0x51-0x57, 0x59, 0x5A, 0x5C, 0x60-0x7E
            if (
                0x30 <= f <= 0x4F
                or 0x51 <= f <= 0x57
                or f in (0x59, 0x5A, 0x5C)
                or 0x60 <= f <= 0x7E
            ):
                append(("esc", "", chr(f), m.end() - 1))
                return m.end()
            return self._slow(data, i, append)
        if m is not None:
            # With intermediates, all finals 0x30-0x7E dispatch
            append(("esc", m.group(1).decode("ascii"), chr(m.group(2)[0]), m.end() - 1))
            return m.end()
        return self._slow(data, i, append)

    # -- exact slow path ----------------------------------------------------

    def _slow(self, data: bytes, i: int, append) -> int:
        """Process bytes one at a time with the exact state machine until
        the state returns to GROUND (or data ends).  Returns new index."""
        n = len(data)
        while i < n:
            self._step(data[i], i, append)
            i += 1
            if self.state == GROUND and self.utf8_need == 0:
                break
        return i

    def _clear(self):
        self.private = ""
        self.interm = ""
        self.params = ""

    def _step(self, b: int, pos: int, append):
        st = self.state

        # GROUND handles raw bytes with UTF-8 assembly
        if st == GROUND:
            if self.utf8_need:
                if b & 0xC0 == 0x80:
                    self.utf8_acc = (self.utf8_acc << 6) | (b & 0x3F)
                    self.utf8_need -= 1
                    if self.utf8_need == 0:
                        # the decoded code point (not the bytes) hits the
                        # GROUND event map: overlong encodings can decode
                        # to C0/ESC/C1 values, surrogates print as-is,
                        # and > 0x10FFFF has no mapping (the reference
                        # raises, vtparser.py:230)
                        self._ground_code(self.utf8_acc, pos, append)
                    return
                # Invalid sequence: drop it; the offending byte bypasses
                # UTF-8 reassembly entirely and goes straight to the
                # event map (reference vtparser.py:586-598 does not
                # re-enter the UTF-8 machine), so a 0xC2-0xFD lead byte
                # here PRINTS raw instead of starting a new sequence.
                self.utf8_need = 0
                if b == 0x1B:
                    self._enter_escape(pos)
                elif b in _C0_EXEC or b in (0x18, 0x1A):
                    append(("exec", b, pos))
                elif 0x80 <= b <= 0x9F:
                    self._c1(b, pos, append)
                else:
                    append(("print", chr(b), pos, pos + 1))
                return
            if b < 0x80:
                if b == 0x1B:
                    self._enter_escape(pos)
                elif b in _C0_EXEC or b in (0x18, 0x1A):
                    append(("exec", b, pos))
                else:
                    append(("print", chr(b), pos, pos + 1))
                return
            if b < 0xC2 or b > 0xFD:
                # Accepted as a raw 8-bit code (reference vtparser.py:83-87):
                # 0x80-0x9F carry C1 semantics, 0xA0+ print in GROUND.
                if b <= 0x9F:
                    self._c1(b, pos, append)
                else:
                    append(("print", chr(b), pos, pos + 1))
                return
            if b & 0xE0 == 0xC0:
                self.utf8_acc = b & 0x1F
                self.utf8_need = 1
            elif b & 0xF0 == 0xE0:
                self.utf8_acc = b & 0x0F
                self.utf8_need = 2
            elif b & 0xF8 == 0xF0:
                self.utf8_acc = b & 0x07
                self.utf8_need = 3
            else:
                raise NotImplementedError(
                    "UTF-8 sequence starting 0x{:02x} unsupported".format(b)
                )
            return

        # All other states: GR aliasing for lookup, original byte to action
        s = b - 0x80 if 0xA0 <= b <= 0xFF else b

        # Anywhere rules
        if s == 0x18 or s == 0x1A:
            self._exit_action(pos, append)
            append(("exec", b, pos))
            self.state = GROUND
            return
        if s == 0x1B:
            self._exit_action(pos, append)
            self._enter_escape(pos)
            return
        if 0x80 <= s <= 0x9F:
            self._c1(b, pos, append, from_state=st)
            return

        if st == ESCAPE:
            if s in _C0_EXEC:
                append(("exec", b, pos))
            elif 0x20 <= s <= 0x2F:
                self.interm += chr(b)
                self.state = ESCAPE_INTERMEDIATE
            elif s == 0x50:
                self.state = DCS_ENTRY
                self._clear()
            elif s == 0x5B:
                self.state = CSI_ENTRY
                self._clear()
            elif s == 0x5D:
                self._enter_osc()
            elif s in (0x58, 0x5E, 0x5F):
                self.state = SOS_PM_APC_STRING
            elif s == 0x7F:
                pass
            else:  # dispatchable finals
                append(("esc", self.interm, chr(b), pos))
                self.state = GROUND
        elif st == ESCAPE_INTERMEDIATE:
            if s in _C0_EXEC:
                append(("exec", b, pos))
            elif 0x20 <= s <= 0x2F:
                self.interm += chr(b)
            elif s == 0x7F:
                pass
            else:
                append(("esc", self.interm, chr(b), pos))
                self.state = GROUND
        elif st in (CSI_ENTRY, CSI_PARAM, CSI_INTERMEDIATE, CSI_IGNORE):
            if s in _C0_EXEC:
                append(("exec", b, pos))
            elif 0x40 <= s <= 0x7E:
                if st != CSI_IGNORE:
                    append(("csi", self.private, self.params, self.interm, chr(b), pos))
                self.state = GROUND
            elif s == 0x7F:
                pass
            elif st == CSI_IGNORE:
                pass
            elif 0x20 <= s <= 0x2F:
                self.interm += chr(b)
                self.state = CSI_INTERMEDIATE
            elif st == CSI_INTERMEDIATE:
                self.state = CSI_IGNORE  # 0x30-0x3F after intermediate
            elif 0x30 <= s <= 0x39 or s == 0x3B:
                self.params += chr(b)
                if st == CSI_ENTRY:
                    self.state = CSI_PARAM
            elif s == 0x3A:
                self.state = CSI_IGNORE
            elif 0x3C <= s <= 0x3F:
                if st == CSI_ENTRY:
                    # the collect action checks the ORIGINAL byte: a
                    # GR-aliased byte stores as an intermediate instead
                    # (reference vtparser.py:644-652)
                    if 0x3C <= b <= 0x3F:
                        self.private = chr(b)
                    else:
                        self.interm += chr(b)
                    self.state = CSI_PARAM
                else:
                    self.state = CSI_IGNORE
        elif st in (DCS_ENTRY, DCS_PARAM, DCS_INTERMEDIATE):
            if s in _C0_EXEC or s == 0x7F:
                pass
            elif 0x40 <= s <= 0x7E:
                # hook: enter passthrough
                self.dcs_key = self.private + self.params + self.interm + chr(b)
                self.dcs_buf = []
                self.state = DCS_PASSTHROUGH
                append(("dcs_hook", self.dcs_key, pos))
            elif 0x20 <= s <= 0x2F:
                self.interm += chr(b)
                self.state = DCS_INTERMEDIATE
            elif st == DCS_INTERMEDIATE:
                self.state = DCS_IGNORE
                self._dcs_ignore_hook(b, append)
            elif 0x30 <= s <= 0x39 or s == 0x3B:
                self.params += chr(b)
                if st == DCS_ENTRY:
                    self.state = DCS_PARAM
            elif s == 0x3A:
                self.state = DCS_IGNORE
                self._dcs_ignore_hook(b, append)
            elif 0x3C <= s <= 0x3F:
                if st == DCS_ENTRY:
                    if 0x3C <= b <= 0x3F:
                        self.private = chr(b)
                    else:
                        self.interm += chr(b)
                    self.state = DCS_PARAM
                else:
                    self.state = DCS_IGNORE
                    self._dcs_ignore_hook(b, append)
        elif st == DCS_PASSTHROUGH:
            if s == 0x7F:
                pass
            else:
                self.dcs_buf.append(chr(b))
        elif st == DCS_IGNORE:
            pass
        elif st == OSC_STRING:
            if s == 0x07:
                append(("osc", "".join(self.osc_buf), pos))
                self.osc_buf = []
                self.state = GROUND
            elif 0x20 <= s <= 0x7F:
                self.osc_buf.append(chr(b))
            # everything else ignored
        elif st == SOS_PM_APC_STRING:
            pass

    def _ground_code(self, cp: int, pos: int, append):
        """Dispatch a decoded code point through the GROUND event map."""
        if cp > 0x10FFFF:
            raise NotImplementedError(
                "code point 0x{:x} has no event mapping".format(cp)
            )
        if cp == 0x1B:
            self._enter_escape(pos)
        elif cp in _C0_EXEC or cp in (0x18, 0x1A):
            append(("exec", cp, pos))
        elif 0x80 <= cp <= 0x9F:
            self._c1(cp, pos, append)
        else:
            append(("print", chr(cp), pos, pos + 1))

    def _enter_escape(self, _pos):
        self.state = ESCAPE
        self._clear()

    def _enter_osc(self):
        self.state = OSC_STRING
        self.osc_buf = []

    def _dcs_ignore_hook(self, b, append):
        # Reference quirk: DCS_IGNORE's entry action is `hook`, which
        # appends the triggering byte to final_char and records the DCS
        # function key (reference vtparser.py:439-447,685-702).  The
        # string is discarded; no unhook/end event fires.
        key = self.private + self.params + self.interm + chr(b)
        append(("dcs_hook", key, -1))

    def _exit_action(self, pos, append):
        st = self.state
        if st == OSC_STRING:
            append(("osc", "".join(self.osc_buf), pos))
            self.osc_buf = []
        elif st == DCS_PASSTHROUGH:
            append(("dcs_end", "".join(self.dcs_buf), pos))
            self.dcs_buf = []

    def _c1(self, b, pos, append, from_state=GROUND):
        """C1 control handling (raw 0x80-0x9F byte in GROUND)."""
        if from_state != GROUND:
            self._exit_action(pos, append)
        if b in (0x90,):
            self.state = DCS_ENTRY
            self._clear()
        elif b == 0x9B:
            self.state = CSI_ENTRY
            self._clear()
        elif b == 0x9D:
            self._enter_osc()
        elif b in (0x98, 0x9E, 0x9F):
            self.state = SOS_PM_APC_STRING
        elif b == 0x9C:
            self.state = GROUND
        else:
            append(("exec", b, pos))
            self.state = GROUND
