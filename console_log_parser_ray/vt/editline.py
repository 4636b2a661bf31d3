"""Visible-line reconstruction by replaying terminal edit sequences.

Rebuilds the *final visible text* of a line from print glyphs, C0
controls (BS/TAB/CR/LF) and editing CSI sequences (insert/delete/erase/
cursor movement), matching the reference's LineBuilder semantics
(reference terminal2html.py:431-554) including the prefix-aware cursor
used for command lines typed after a prompt.

Deviations from the reference (which raises and aborts the whole file)
are tolerated and counted in :attr:`warnings` instead:

* LF while the cursor is inside the prefix (reference raises IndexError,
  terminal2html.py:461)
* ``CSI @`` while in the prefix (reference raises, terminal2html.py:477)
* ``CSI 1K`` / ``CSI 2K`` (reference raises NotImplementedError,
  terminal2html.py:502) -- treated as discard
* cursor-back over the end-of-line cell (reference indexes past the list
  end, terminal2html.py:492)

None of these occur in the reference's own corpus, so conformance tests
are unaffected; the tolerant behavior keeps million-conversation runs
alive on hostile input.
"""

from __future__ import annotations

_SP = " "


class EditLine:
    """A line under construction: glyph cells, inline CSI markers, cursor."""

    __slots__ = ("cells", "cur", "prefix_start", "warnings", "marked")

    def __init__(self):
        self.cells = []  # 1-char str glyphs or ("CSI", private, params, interm, final)
        self.cur = 0
        # Negative index marking the start of prompt text owned by a
        # different builder (reference terminal2html.py:438-439).
        self.prefix_start = 0
        self.warnings = 0
        # set once an SGR marker is stored (keep_sgr=True); while clear,
        # every cell is a glyph
        self.marked = False

    # -- glyphs ------------------------------------------------------------

    def put_char(self, ch: str):
        if self.cur >= 0:
            if self.cur >= len(self.cells):
                self.cells.append(ch)
            else:
                self.cells[self.cur] = ch
        self.cur += 1

    def put_text(self, s: str):
        """Append/overwrite a run of glyphs; bulk-appends in the common
        cursor-at-end case."""
        if self.cur == len(self.cells) and self.cur >= 0:
            self.cells.extend(s)
            self.cur += len(s)
        else:
            for ch in s:
                self.put_char(ch)

    # -- C0 controls -------------------------------------------------------

    def ctrl(self, code: int):
        if code == 0x08:  # BS
            if self.cur > self.prefix_start:
                self.cur -= 1
        if code == 0x09:  # TAB: kept as a glyph
            self.put_char("\t")
        elif code == 0x0D:  # CR: column 0 (possibly into the prefix)
            self.cur = self.prefix_start
        elif code == 0x0A:  # LF terminates the line; keep it visible
            if self.prefix_start < self.cur < 0:
                self.warnings += 1
            self.cells.append("\n")
            self.cur += 1

    # -- editing CSI sequences --------------------------------------------

    def csi(self, private, params, interm, final, keep_sgr=False):
        if final == "@" and interm == "":  # ICH: insert blanks
            times = self._count(params)
            at = self.cur
            if at < 0:
                self.warnings += 1
                at = 0
            for _ in range(times):
                self.cells.insert(at, _SP)
        elif final == "C":  # CUF: cursor forward (pad with spaces at end)
            for _ in range(self._count(params)):
                while 0 <= self.cur < len(self.cells) and isinstance(
                    self.cells[self.cur], tuple
                ):
                    self.cur += 1
                if self.cur >= len(self.cells):
                    self.cells.append(_SP)
                self.cur += 1
        elif final == "D":  # CUB: cursor backward
            n = self._count(params)
            while self.cur >= self.prefix_start and n:
                while (
                    0 < self.cur < len(self.cells)
                    and isinstance(self.cells[self.cur], tuple)
                ):
                    self.cur -= 1
                self.cur -= 1
                n -= 1
        elif final == "K":  # EL: erase to end of line (mode 0 only)
            if params in ("", "0"):
                del self.cells[max(self.cur, 0):]
            else:
                self.warnings += 1
        elif final == "P":  # DCH: delete characters
            n = self._count(params)
            start = self.cur if self.cur >= 0 else 0
            end = self.cur + n
            if end > 0:
                self.cells[start:end] = []
            if self.cur < 0:
                self.warnings += 1
        elif final == "X":  # ECH: erase characters (overwrite with blanks)
            n = self._count(params)
            pos = self.cur
            while n > 0 and pos < len(self.cells):
                if pos >= 0:
                    self.cells[pos] = _SP
                pos += 1
                n -= 1
            if self.cur < 0:
                self.warnings += 1
        elif final == "m":
            if keep_sgr and self.cur >= 0:
                marker = ("CSI", private, params, interm, final)
                if self.cur >= len(self.cells):
                    self.cells.append(marker)
                else:
                    self.cells[self.cur] = marker
                self.cur += 1
                self.marked = True
        # all other sequences do not affect the visible line

    def _count(self, params: str) -> int:
        if params == "":
            return 1
        try:
            return int(params)
        except ValueError:
            self.warnings += 1
            return 1

    # -- accessors ---------------------------------------------------------

    def reset(self):
        self.cells = []
        self.cur = 0
        self.prefix_start = 0
        self.marked = False

    def set_prefix_len(self, n: int):
        self.prefix_start = -n

    def size(self) -> int:
        return len(self.cells)

    def printable_size(self) -> int:
        if not self.marked:
            return len(self.cells)
        return sum(1 for c in self.cells if not isinstance(c, tuple))

    def render(self) -> str:
        """The visible text (markers contribute nothing in plain text)."""
        if not self.marked:
            return "".join(self.cells)
        return "".join(c for c in self.cells if not isinstance(c, tuple))
