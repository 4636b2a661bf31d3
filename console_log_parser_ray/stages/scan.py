"""The session scan: ``scan_bucket_table`` over an Arrow table.

The table holds whole conversations -- one partition of the flagship
kernel, one conversation-complete file, or one hash bucket of a
Dataset; the scan sorts by ``(conv_id, turn_idx)``, finds the
conversation boundaries with one Arrow pass (``run_end_encode``), walks
one SessionScanner per conversation over the lines, and returns one
structured row per turn.

Columns, not records.  Every turn is appended straight to per-column
lists (``_Turns``); only the exact walk builds a ``TurnRecord``, whose
fields are copied into the same lists.  The command/cwd backfill over
each command row and the role rule run once over those lists, and
``conv_id``, ``turn_idx`` and ``ts`` pass through from the input.

Vectorized pre-classification: before the Python walk, Arrow compute
passes classify every line so that the scanner can skip tokenization
for the common line shapes --

* *plain* lines (no escapes / C0 edits / '$' / vim hint): the visible
  text is the line itself,
* *SGR-only* lines (escapes are exclusively ``CSI ... m`` color runs):
  the visible text is the line with the color runs deleted,
* *noise* lines (SGR, private-mode toggles, non-title OSC, DCS; checked
  per row): the visible text is the line with those sequences deleted,
* vim-session interiors that cannot end or re-detect the session,

and the prompt protocol (checked per row) --

* *one-line OSC-title prompts* (``OSC 0;title BEL``, a header of
  printable ASCII and SGR runs, then ``$ ``): the prompt start, the
  prompt-OSC trigger and the ``$`` are applied with a few attribute
  writes, and the typed tail from the ``$`` on goes through the
  typed-tail kernel below,
* *MINGW ``$`` lines* in PROMPT_IMMINENT: the ``$`` trigger at byte 0,
  then the typed-tail kernel,
* *title-only lines* (the same prefix, no ``$``): a prompt start, then
  an ordinary output line,
* plain and SGR-only lines inside the MINGW protocol (PROMPT_OSC /
  PROMPT_IMMINENT): the header check, then an ordinary output line --

and the vim session boundaries (lines of complete CSI sequences only,
no DECCKM toggle among them) --

* *vim start lines* in NORMAL or PROMPT (``CSI 22;0;0t`` ...
  ``CSI 22;2t CSI 22;1t``, VIM_START_1, and no ``CSI 23;0;0t``): the
  prompt end if one is pending, then the session start; every sequence
  and the LF fall inside the session and are dropped,
* *vim end lines* of a session ``CSI 22;0;0t`` started (``CSI
  23;0;0t`` once, as the line's last sequence): the session end, then
  the LF flushes ``"\n"`` --

while hint-literal and VIM_START_2 starts, one-line sessions, text or a
prompt after ``CSI 23;0;0t``, and anything carrying parser state take
the exact slow path.  The fast paths are only *hints*; the scanner
re-checks its own state (FSM state, tokenizer carry, pending vim
re-entry, a pending or dirty terminal line) before trusting them.

The typed-tail kernel.  After a prompt's ``$`` the scanner is in the
PROMPT state and every byte edits the command line.  A tail of
printable ASCII, BS and ``CSI <n> @/C/D/K/P/X`` (``<n>`` decimal or
empty) touches nothing else, so its effect -- the command line's final
cells, its cursor and its warning *delta* -- is a pure function of the
tail and of the prompt's printable length ``p``.  It depends on ``p``
only through ``min(p, L + 1)``, where ``L`` is the tail's total
leftward motion (BS count plus CUB counts): the cursor never gets
further left than ``-L``, so a longer prefix is never reached.  The
kernel's results are cached under ``(tail, min(p, L + 1))`` (a tail
seen with one ``p`` only is keyed by ``p`` until a second one shows up,
so ``L`` is counted only for tails that repeat), and the OSC prompt
prefix (title, cwd, SGR-stripped header and the prompt-OSC trigger)
under the text before the ``$``.  The caches live for one
``scan_bucket_table`` / ``scan_conversation`` call, so no state carries
from one call to the next.  Past 64 keys a cache admits new ones only
while its repeat lookups outnumber its keys: a table whose typed tails
never repeat walks them at almost no extra cost.  A miss runs the exact
walk over the tail and caches what it left; a tail with any byte
outside the alphabet, a prefix the trigger does not vouch for, or a
prompt whose ``$`` is not followed by a space takes the exact path.

Output is bit-identical to the full walk (``use_fast_paths=False``, the
uncached oracle), asserted by tests/test_prompt_fast_path.py, which
needs no reference oracle.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..vt import patterns as P
from ..vt import session as S
from ..vt.session import SessionScanner, osc_prompt_hit, prompt_header_cwd
from ..vt.tokenizer import GROUND

# "Plain" lines: no C0 except TAB (LF cannot occur inside a turn's
# text) and a trailing CR run (winpty endings), no '$' (prompt
# detection), no vim hint literal, no ESC.  C1 code points
# U+0080-U+009F are excluded everywhere: the tokenizer feeds decoded
# code points to the event map, where 0x9B/0x9D/0x90/... introduce
# CSI/OSC/DCS exactly like their ESC forms (tokenizer._c1), so a line
# carrying one is never fast-path safe.
_PLAIN = "^[^\\x00-\\x08\\x0a-\\x1f$\\x80-\\x9f]*\\r*$"
_HINT_LIT = "hint: Waiting"
# Lines whose only escape use is SGR coloring
_SGR_ONLY = (
    "^(?:[^\\x1b\\x00-\\x08\\x0b-\\x1f$\\x80-\\x9f]|\\x1b\\[[0-9;]*m)*\\r*$"
)
_SGR_RUN = "\\x1b\\[[0-9;]*m"
# "Noise-safe" lines: visible text interleaved ONLY with sequences that
# produce no output and no feature-FSM transitions in NORMAL state --
# SGR runs, private-mode toggles (DECCKM ?1h/?1l included: their
# positions are reconstructed analytically), BEL-terminated OSC strings
# that do NOT start "0;" (only title-setting OSCs drive the prompt
# protocol, reference terminalparser.py:381), and ST-terminated DCS.
_NOISE_ONLY = (
    "^(?:[^\\x1b\\x00-\\x06\\x08\\x0b-\\x1f$\\x80-\\x9f]"
    "|\\x1b\\[[0-9;]*m"
    "|\\x1b\\[\\?[0-9;]*[hl]"
    "|\\x1b\\][1-9][0-9]*;[^\\x07\\x1b\\x80-\\x9f]*\\x07"
    "|\\x1bP[0-9;]*[\\x20-\\x2f]*[a-zA-Z][^\\x1b\\x80-\\x9f]*\\x1b\\\\"
    ")*\\r*$"
)
# visible remainder of a noise-safe line (applied per noise row)
_NOISE_STRIP = (
    "\\x1b\\[[0-9;]*m|\\x1b\\[\\?[0-9;]*[hl]"
    "|\\x1b\\][1-9][0-9]*;[^\\x07\\x1b]*\\x07"
    "|\\x1bP[0-9;]*[\\x20-\\x2f]*[a-zA-Z][^\\x1b]*\\x1b\\\\"
    "|[\\x07]"
)
# Inside a vim session every print/exec/CSI is dropped; a line can be
# skipped wholesale unless it could (a) end or re-detect the session
# (23;0;0t / vim-end-2 pieces / hint literal), (b) start an OSC/DCS/
# SOS string or toggle app-mode state, or (c) leave the tokenizer in a
# non-GROUND state at end of line (truncated ESC/CSI tail; the tail
# class conservatively includes embedded C0s).
_VIM_RISKY = (
    "\\x1b(\\]|P|X|\\^|_|=|>)|23;0;0t|\\x1b\\[\\?1[hl]"
    "|\\x1b(\\[[\\x00-\\x3f\\x7f]*)?$|hint: Waiting|[\\x80-\\x9f]"
)


_NOISE_STRIP_RE = re.compile(_NOISE_STRIP)
_NOISE_ONLY_RE = re.compile(_NOISE_ONLY)
_SGR_RUN_RE = re.compile(_SGR_RUN)
# OSC-title prompt prefix: a BEL-terminated "0;" title of printable
# ASCII, then a header of printable ASCII other than '$' and SGR runs,
# up to the prompt's '$' (one-line prompt) or the end of the text
# (title-only line).
_OSC_PREFIX_RE = re.compile(
    "\\x1b\\]0;([\\x20-\\x7e]*)\\x07((?:[\\x20-\\x23\\x25-\\x7e]|\\x1b\\[[0-9;]*m)*)"
)
# the typed-tail kernel's alphabet, and the CUB counts of a tail
_TAIL_RE = re.compile(
    "[\\x20-\\x7e\\x08]*+(?:\\x1b\\[[0-9]*+[@CDKPX][\\x20-\\x7e\\x08]*+)*+"
)
_CUB_RE = re.compile("\\x1b\\[([0-9]*)D")
# a line of complete CSI sequences (the tokenizer's CSI grammar) and
# nothing else, no DECCKM toggle among them: inside a vim session none
# of it reaches the output, and only CSI 23;0;0t the feature FSM
_CSI_ONLY_RE = re.compile(
    "(?:\\x1b\\[(?!\\?1[hl])[\\x30-\\x3f]*[\\x20-\\x2f]*[\\x40-\\x7e])+"
)
_VIM_END = "\x1b[23;0;0t"

# Output schema of the session scan
SCAN_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("ts", pa.timestamp("us")),
        ("role", pa.string()),
        ("clean_text", pa.string()),
        ("cmd_count", pa.int32()),
        ("cmd_number", pa.int32()),
        ("is_prompt", pa.bool_()),
        ("command", pa.string()),
        ("cwd", pa.string()),
        ("in_vim", pa.bool_()),
        ("vim_session_id", pa.int32()),
        ("osc_title", pa.string()),
        ("warnings", pa.int32()),
        # raw frame data for vim-session turns (null elsewhere); feeds
        # the vim_sessions sink (reference asciinema2html.py:192-197)
        ("vim_text", pa.string()),
    ]
)


def _pylist(arr) -> list:
    """Python values of an Arrow array; numpy's conversion is several
    times faster than ``to_pylist`` for strings and booleans."""
    return arr.to_numpy(zero_copy_only=False).tolist()


def _fast_hints(texts: pa.ChunkedArray):
    """Vectorized line classification for the scanner fast paths, as
    Python lists ``(plain, vim_safe, sgr_only)``."""
    no_hint = pc.invert(pc.match_substring(texts, _HINT_LIT))
    plain = pc.and_(pc.match_substring_regex(texts, _PLAIN), no_hint)
    vim_safe = pc.invert(pc.match_substring_regex(texts, _VIM_RISKY))
    has_esc = pc.match_substring(texts, "\x1b")
    sgr_only = pc.and_(
        has_esc, pc.and_(pc.match_substring_regex(texts, _SGR_ONLY), no_hint)
    )
    # the noise-only class is tested lazily per row (Python regex) only
    # for rows that would otherwise take the full scan: a column-wide
    # RE2 pass with that alternation costs more than it saves
    return _pylist(plain), _pylist(vim_safe), _pylist(sgr_only)


class _Turns:
    """Per-column lists of scanned turns, one conversation after
    another (``convs`` holds each one's row bounds).  ``command`` and
    ``cwd`` hold what each turn itself found (None / ""), ``user`` the
    role rule's flag (prompt start or active, a command, a cwd)."""

    def __init__(self):
        self.clean_text, self.cmd_count, self.cmd_number = [], [], []
        self.is_prompt, self.user, self.command, self.cwd = [], [], [], []
        self.in_vim, self.vim_session_id = [], []
        self.osc_title, self.warnings = [], []
        self.convs = []

    def record(self, r):
        """Append one TurnRecord (the exact walk's output)."""
        self.clean_text.append(r.clean_text)
        self.cmd_count.append(r.cmd_count)
        self.cmd_number.append(r.cmd_number)
        self.is_prompt.append(r.is_prompt)
        self.user.append(
            r.is_prompt or r.prompt_active or r.command is not None or r.cwd != ""
        )
        self.command.append(r.command)
        self.cwd.append(r.cwd)
        self.in_vim.append(r.in_vim)
        self.vim_session_id.append(r.vim_session_id)
        self.osc_title.append(r.osc_title)
        self.warnings.append(r.warnings)

    def columns(self, carry=None) -> dict:
        """The SCAN_SCHEMA columns from ``role`` to ``warnings``: command
        text and cwd are backfilled over each command row
        (``cmd_count``) of each conversation.

        ``carry``: optional (cmd_text, cmd_cwd) dict pair, updated in
        place, for one conversation assembled across successive calls.
        """
        cmd_count = self.cmd_count
        commands, cwds = [], []
        for lo, hi in self.convs:
            cmd_text, cmd_cwd = carry if carry is not None else ({}, {})
            counts = cmd_count[lo:hi]
            for c, t, w in zip(counts, self.command[lo:hi], self.cwd[lo:hi]):
                if t is not None and c not in cmd_text:
                    cmd_text[c] = t
                if w and c not in cmd_cwd:
                    cmd_cwd[c] = w
            commands += [cmd_text.get(c, "") for c in counts]
            cwds += [cmd_cwd.get(c, "") for c in counts]
        return {
            "role": [
                "system" if c == 0 else "user" if u else "assistant"
                for c, u in zip(cmd_count, self.user)
            ],
            "clean_text": self.clean_text,
            "cmd_count": cmd_count,
            "cmd_number": self.cmd_number,
            "is_prompt": self.is_prompt,
            "command": commands,
            "cwd": cwds,
            "in_vim": self.in_vim,
            "vim_session_id": self.vim_session_id,
            "osc_title": self.osc_title,
            "warnings": self.warnings,
        }

    def table(self, conv_ids, turn_idxs, ts, texts, carry=None) -> pa.Table:
        """SCAN_SCHEMA table; ``texts`` (a string Array, or None) feeds
        ``vim_text`` on in-vim turns."""
        cols = self.columns(carry)
        arrays = {"conv_id": conv_ids, "turn_idx": turn_idxs, "ts": ts}
        for name in cols:
            arrays[name] = pa.array(cols[name], SCAN_SCHEMA.field(name).type)
        arrays["vim_text"] = (
            pc.if_else(arrays["in_vim"], texts, pa.scalar(None, pa.string()))
            if texts is not None
            else pa.nulls(len(cols["role"]), pa.string())
        )
        return pa.Table.from_arrays(
            [arrays[name] for name in SCAN_SCHEMA.names], schema=SCAN_SCHEMA
        )


# a cache admits new keys up to this many, and beyond that while its
# repeat lookups outnumber its keys
_ADMIT = 64
_MISSING = object()
# the cache entry of a typed tail the tail cache did not admit: walked,
# not kept
_UNCACHED = (None, None)


class _Cache(dict):
    """One cache of a scan call.  Past ``_ADMIT`` keys it admits a new
    one only while repeat lookups outnumber its keys, so input whose
    keys do not repeat pays almost no upkeep for it."""

    __slots__ = ("repeats",)

    def __init__(self):
        super().__init__()
        self.repeats = 0

    def admits(self) -> bool:
        return len(self) < _ADMIT or len(self) < self.repeats

    def lookup(self, key, compute):
        val = self.get(key, _MISSING)
        if val is _MISSING:
            val = compute(key)
            if self.admits():
                self[key] = val
        else:
            self.repeats += 1
        return val


def _osc_prefix(key: str):
    """See ``_Memo.prefix``; ``key`` is the text before the '$'."""
    m = _OSC_PREFIX_RE.match(key)
    if m is None or m.end() != len(key):
        return None
    s = "0;" + m.group(1)
    # a PROMPT match that starts before the '$' ends at it and needs
    # "$ " there; the caller checks the space
    hit = osc_prompt_hit((key + "$ ").encode(), m.start(2), s)
    cwd = hit[2] if hit is not None and hit[0] < len(key) else None
    return (s, m.group(1), _SGR_RUN_RE.sub("", m.group(2)), cwd, len(key))


def _header_cwd(text: str):
    return prompt_header_cwd(text.encode("utf-8", "surrogatepass"))


class _Memo:
    """The typed-row caches of one scan call (see the module docstring):
    OSC prompt prefixes, typed tails and MINGW header cwds."""

    __slots__ = ("prefixes", "tails", "headers")

    def __init__(self):
        self.prefixes = _Cache()
        self.tails = _Cache()
        self.headers = _Cache()

    def prefix(self, text: str):
        """``(osc_string, title, body, cwd, end)`` of a line starting
        with ``OSC 0;``: ``body`` is the SGR-stripped header, ``end``
        the index of the prompt's '$' (``len(text)`` for a title-only
        line), ``cwd`` the prompt-OSC trigger's, which must fire before
        the '$' (None if it does not).  None if the prefix is not of
        that shape."""
        bel = text.find("\x07")
        if bel < 0:
            return None
        end = text.find("$", bel)
        return self.prefixes.lookup(text if end < 0 else text[:end], _osc_prefix)

    def tail(self, tail: str):
        """The cache entry ``[L, results]`` of a typed tail in the
        kernel's alphabet, None outside it.  ``results`` maps a clamped
        prefix length to the kernel's result.  ``L`` (the leftward
        motion) is computed once a second prefix length shows up; until
        then ``L`` is None and ``results`` holds one unclamped entry, so
        a tail seen once costs little more than the walk.  A tail the
        cache does not admit gets ``_UNCACHED``."""
        cache = self.tails
        entry = cache.get(tail, _MISSING)
        if entry is not _MISSING:
            cache.repeats += 1
            return entry
        if not _TAIL_RE.fullmatch(tail):
            entry = None
        elif cache.admits():
            entry = [None, {}]
        else:
            return _UNCACHED
        cache[tail] = entry
        return entry

    def header_cwd(self, text: str):
        """``prompt_header_cwd`` of a line."""
        return self.headers.lookup(text, _header_cwd)


def _type_tail(sc: SessionScanner, entry, tail: str, ptls: int):
    """The typed-tail kernel: load the command line that ``"$" + tail``
    and the line's LF leave after a prompt of printable length ``ptls``,
    from the cache ``entry`` (``_Memo.tail``) or by the exact walk.  The
    scanner is in PROMPT with ``in_prompt`` set."""
    cl = sc.cmd_line
    cl.reset()
    cl.prefix_start = -ptls
    left, results = entry
    if results is None:
        sc._walk(b"$" + tail.encode() + b"\n")
        return
    if left is None and results and ptls not in results:
        # a second prefix length: key the results by clamped length
        left = tail.count("\x08")
        for n in _CUB_RE.findall(tail):
            left += int(n) if n else 1
        entry[0] = left
        entry[1] = results = {min(p, left + 1): r for p, r in results.items()}
    key = ptls if left is None or ptls <= left else left + 1
    hit = results.get(key)
    if hit is None:
        w0 = cl.warnings
        sc._walk(b"$" + tail.encode() + b"\n")
        results[key] = (tuple(cl.cells), cl.cur, cl.warnings - w0)
    else:
        cells, cl.cur, dw = hit
        cl.cells = list(cells)
        cl.warnings += dw


# per-row fields of a vim-interior line: nothing survives
_VIM_ROW = ("", False, False, None, "", "", 0)
# ... and of a vim end line: the LF after the session flushes "\n"
_VIM_END_ROW = ("\n", False, False, None, "", "", 0)


def _vim_end(sc: SessionScanner, text: str):
    """The fields of a vim end line in VIM_START, or None to take the
    exact walk: a session that CSI 22;0;0t started (``vim_2200_seen``)
    ends at the line's one CSI 23;0;0t, its last sequence.  Every CSI
    before it is dropped, no prompt or second session can follow it,
    and the LF flushes the pristine terminal line as ``"\n"``."""
    tl = sc.term_line
    if (
        sc.tlp != S.VIM_START
        or not (sc.in_vim and sc.vim_2200_seen)
        or tl.cells
        or tl.cur
        or tl.warnings
        or not text.endswith(_VIM_END)
        or text.count("23;0;0t") != 1
        or not _CSI_ONLY_RE.fullmatch(text)
    ):
        return None
    sc.close_vim()
    sc.tlp = S.NORMAL
    sc.next_vim = -1
    return _VIM_ROW if sc.suppressed else _VIM_END_ROW


def _fast_row(sc: SessionScanner, memo, text, plain, vim_safe, sgr_only, stats=False):
    """Apply one line through a state-checked fast path; returns its
    fields ``(clean_text, is_prompt, user, command, cwd, osc_title,
    warnings)``, or None to take the exact walk.

    ``stats=True`` keeps every line whose escapes are not all SGR runs
    on the exact path: their sequences must be counted.
    """
    tok = sc.tok
    if tok.state != GROUND or tok.utf8_need or sc.next_vim > 0:
        return None
    tlp = sc.tlp

    # vim interior: everything is dropped; only session-control escapes
    # or a dirty tokenizer tail force the exact path
    if tlp == S.VIM_START or tlp == S.VIM_ONELINE:
        if sc.in_prompt:
            return None
        if vim_safe:
            return _VIM_ROW
        return None if stats else _vim_end(sc, text)

    # in_prompt at line start means the command line is pending flush,
    # which happens exactly when tlp == PROMPT: the line-start step
    # below ends the prompt (writes the command line, in_prompt
    # cleared) before touching the body, so those lines stay eligible.
    # The terminal line must be pristine: no cells, cursor at 0 and no
    # pending warnings (a line without LF can leave any of them).
    tl = sc.term_line
    if (
        (sc.in_prompt and tlp != S.PROMPT)
        or sc.in_vim
        or tl.cells
        or tl.cur
        or tl.warnings
    ):
        return None
    osc = None
    noise = vim = False
    if plain or sgr_only:
        body = (_SGR_RUN_RE.sub("", text) if sgr_only else text).rstrip("\r")
    elif stats:
        return None
    elif text.startswith("\x1b]0;"):
        if tlp == S.PROMPT_OSC or tlp == S.PROMPT_IMMINENT:
            return None
        osc = memo.prefix(text)
        if osc is None:
            return None
        end = osc[4]
        if end < len(text):
            # one-line prompt: the prompt-OSC trigger fires in the
            # header, and the tail is in the kernel's alphabet.  No
            # vim-start pattern can match: VIM_START_0 is anchored at
            # the line start, the others need CSI finals the prefix and
            # the alphabet exclude.
            tail = text[end + 1 :]
            if osc[3] is None or not tail.startswith(" "):
                return None
            entry = memo.tail(tail)
            if entry is None:
                return None
        # else a title-only line: no '$' after the title, so no trigger
        # fires and no vim-start pattern can match
    elif text.startswith("$"):
        # MINGW typed line: the '$' trigger fires at byte 0 (the
        # terminal line is empty, so the prompt's printable length is 0)
        if tlp != S.PROMPT_IMMINENT:
            return None
        tail = text[1:]
        entry = memo.tail(tail)
        if entry is None:
            return None
        sc.vim_2200_seen = False
        sc.in_prompt = True
        sc.tlp = S.PROMPT
        _type_tail(sc, entry, tail, 0)
        return ("", False, True, None, "", "", 0)
    elif _HINT_LIT in text:
        return None
    elif _NOISE_ONLY_RE.match(text):
        # PROMPT_OSC / PROMPT_IMMINENT: noise lines stay exact (a DCS
        # payload such as 1$r0m can complete a PROMPT match)
        if tlp == S.PROMPT_OSC or tlp == S.PROMPT_IMMINENT:
            return None
        noise = True
    elif (
        (tlp == S.NORMAL or tlp == S.PROMPT)
        and vim_safe
        and _CSI_ONLY_RE.fullmatch(text)
        and P.VIM_START_1.match(text.encode())
    ):
        # vim start (CSI 22;0;0t ... CSI 22;2t CSI 22;1t): no print, so
        # no '$' trigger and no hint literal; vim_safe, so no CSI 23;0;0t
        # makes the session one-line.  Once it starts, every CSI and the
        # LF are dropped.
        vim = True
    else:
        return None

    clean = ""
    command = None
    warnings = 0
    cwd = ""
    if tlp == S.PROMPT:  # prompt end: the command line is written
        line, command, warnings = sc.close_cmd_line()
        if line and not sc.suppressed:
            clean = line
        sc.tlp = S.NORMAL
    elif tlp == S.PROMPT_OSC and "MINGW64" in text:
        cwd = sc.prompt_header(memo.header_cwd(text)) or ""

    if vim:
        sc.vim_2200_seen = True
        sc.open_vim()
        sc.tlp = S.VIM_START
        return (clean, False, command is not None, command, "", "", warnings)
    # the vim-start detection block ran and found nothing
    sc.vim_2200_seen = False

    if osc is not None:
        s, title, body, prompt_cwd, end = osc
        sc.osc_seen.add(s)
        sc.osc_string = s
        sc.prompt_count += 1  # prompt start
        sc._new_cmd_row()
        if end == len(text):
            sc.tlp = S.PROMPT_OSC
            if not sc.suppressed:
                clean += body + "\n"
            return (clean, True, True, command, "", title, warnings)
        # the header prints and flushes at the '$' (prompt active)
        if body and not sc.suppressed:
            clean += body
        sc.in_prompt = True
        sc.tlp = S.PROMPT
        _type_tail(sc, entry, tail, len(body))
        return (clean, True, True, command, prompt_cwd, title, warnings)
    if noise:
        # DECCKM toggles on this line update app-mode pairing positions
        # (the reference records the position of the final byte,
        # terminalparser.py:358-361); nothing else survives skipping.
        if "\x1b[?1" in text:
            raw = text.encode("utf-8", "surrogatepass")
            p = raw.rfind(b"\x1b[?1h")
            if p >= 0:
                sc.ckm_set_pos = p + 4
            p = raw.rfind(b"\x1b[?1l")
            if p >= 0:
                sc.ckm_reset_pos = p + 4
        body = _NOISE_STRIP_RE.sub("", text).rstrip("\r")
    if not sc.suppressed:
        clean += body + "\n"
    return (clean, False, command is not None or cwd != "", command, cwd, "", warnings)


def _scan_rows(sc: SessionScanner, out: _Turns, texts, turn_idxs, eols, hints, lo, hi, memo):
    """Scan one conversation's rows ``[lo, hi)`` (in turn order) into
    ``out``: a state-checked fast path where the hints allow, the exact
    walk otherwise."""
    out.convs.append((lo, hi))
    fast = hints is not None and not sc.collect_stats
    if fast:
        plain, vim_safe, sgr_only = hints
    clean_text = out.clean_text.append
    cmd_count = out.cmd_count.append
    cmd_number = out.cmd_number.append
    is_prompt = out.is_prompt.append
    user = out.user.append
    command = out.command.append
    cwd = out.cwd.append
    in_vim = out.in_vim.append
    vim_session_id = out.vim_session_id.append
    osc_title = out.osc_title.append
    warnings = out.warnings.append
    for r in range(lo, hi):
        text = texts[r]
        eol = eols[r]
        row = None
        if fast and eol:
            row = _fast_row(sc, memo, text, plain[r], vim_safe[r], sgr_only[r])
        if row is None:
            out.record(sc.scan_turn(turn_idxs[r], text, eol))
            continue
        clean_text(row[0])
        cmd_count(sc.cmd_count)
        cmd_number(sc.cmd_number)
        is_prompt(row[1])
        user(row[2])
        command(row[3])
        cwd(row[4])
        v = sc.in_vim
        in_vim(v)
        vim_session_id(sc.vim_session_seq if v else -1)
        osc_title(row[5])
        warnings(row[6])


def scan_conversation(
    conv_id: str,
    texts: list,
    turn_idxs,
    ts_vals,
    suppress=(),
    collect_stats: bool = False,
    hints=None,
    has_eols=None,
):
    """Scan one conversation; returns (dict of output columns, scanner)."""
    sc = SessionScanner(suppress=suppress, collect_stats=collect_stats)
    n = len(texts)
    out = _Turns()
    eols = [True] * n if has_eols is None else has_eols
    _scan_rows(sc, out, texts, turn_idxs, eols, hints, 0, n, _Memo())
    return {
        "conv_id": [conv_id] * n,
        "turn_idx": [int(t) for t in turn_idxs],
        "ts": ts_vals,
        **out.columns(),
    }, sc


def scan_bucket_table(
    tbl: pa.Table,
    suppress_map=None,
    collect_stats: bool = False,
    use_fast_paths: bool = True,
) -> pa.Table:
    """Scan a table of whole conversations (a partition, a file or a
    bucket) in one call.

    Instead of one invocation per conversation (whose fixed costs
    dominate at ~200-turn conversations), a single invocation scans
    every conversation in the table -- one sort, one set of vectorized
    hint masks, one typed-row cache, one output table.
    """
    if tbl.num_rows == 0:
        return SCAN_SCHEMA.empty_table()
    suppress_map = suppress_map or {}
    tbl = tbl.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    n = tbl.num_rows
    conv_ids = tbl.column("conv_id").combine_chunks().cast(pa.string())
    text_col = tbl.column("text").combine_chunks().cast(pa.string())
    texts = _pylist(text_col)
    turn_idx_col = tbl.column("turn_idx").combine_chunks()
    turn_idxs = _pylist(turn_idx_col)
    eols = (
        _pylist(tbl.column("has_eol"))
        if "has_eol" in tbl.schema.names
        else [True] * n
    )
    hints = _fast_hints(text_col) if use_fast_paths else None
    runs = pc.run_end_encode(conv_ids)

    out = _Turns()
    memo = _Memo()  # per call: repeated calls get no warm hits
    lo = 0
    for cid, hi in zip(runs.values.to_pylist(), runs.run_ends.to_pylist()):
        sc = SessionScanner(
            suppress=suppress_map.get(cid, ()), collect_stats=collect_stats
        )
        _scan_rows(sc, out, texts, turn_idxs, eols, hints, lo, hi, memo)
        lo = hi

    ts_vals = (
        tbl.column("ts").combine_chunks()
        if "ts" in tbl.schema.names
        else pa.nulls(n, pa.timestamp("us"))
    )
    return out.table(
        conv_ids, turn_idx_col.cast(pa.int32()), ts_vals, text_col
    )


def make_bucket_stats_fn(use_fast_paths: bool = True):
    """Per-bucket sequence-statistics partials: one (kind, seq, n)
    partial table per bucket.

    Delegates to the tokenizer-level stats engine (stages/stats.py),
    which skips the session FSM entirely -- the histogram depends only
    on tokenizer events -- and handles plain lines analytically.
    ``use_fast_paths=False`` keeps the legacy SessionScanner-based
    counting for differential tests.
    """
    if use_fast_paths:
        from .stats import stats_table

        return stats_table
    return _legacy_bucket_stats_fn(use_fast_paths=False)


def _legacy_bucket_stats_fn(use_fast_paths: bool = True):
    """SessionScanner-based stats counting (differential-test oracle
    for stages/stats.py)."""

    def fn(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
        conv_ids = tbl.column("conv_id").to_pylist()
        texts = tbl.column("text").to_pylist()
        has_eols = (
            tbl.column("has_eol").to_pylist()
            if "has_eol" in tbl.schema.names
            else None
        )
        if use_fast_paths:
            plain, _vim_safe, sgr_only = _fast_hints(tbl.column("text"))
            memo = _Memo()
        merged = {}
        i, n = 0, len(conv_ids)
        while i < n:
            j = i
            cid = conv_ids[i]
            while j < n and conv_ids[j] == cid:
                j += 1
            sc = SessionScanner(collect_stats=True)
            for r in range(i, j):
                eol = True if has_eols is None else bool(has_eols[r])
                if not (
                    use_fast_paths
                    and eol
                    and _fast_stats(sc, memo, texts[r], plain[r], sgr_only[r])
                ):
                    sc.scan_turn(r - i, texts[r], eol)
            for kind, d in sc.stats.items():
                for k, v in d.items():
                    key = (kind, k if isinstance(k, str) else "0x{:02x}".format(k))
                    merged[key] = merged.get(key, 0) + v
            # set-valued kinds: one count per conversation containing
            # the string (partitioning-independent; sums to the number
            # of conversations globally)
            for s in sc.osc_seen:
                key = ("osc_string", s)
                merged[key] = merged.get(key, 0) + 1
            for s in sc.dcs_seen:
                key = ("dcs_string", s)
                merged[key] = merged.get(key, 0) + 1
            i = j
        kinds = [k for k, _ in merged]
        seqs = [s for _, s in merged]
        ns = list(merged.values())
        return pa.table(
            {
                "kind": pa.array(kinds, pa.string()),
                "seq": pa.array(seqs, pa.string()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    return fn


# Analytic stats contributions for fast-path lines ------------------------

_SGR_FINDALL = re.compile("\x1b\\[([0-9;]*)m")


def _fast_stats(sc, memo, text, plain, sgr_only) -> bool:
    """Stats-mode fast path for plain / SGR-only lines; False means
    take the exact walk.

    Reuses the state-checked fast transitions of :func:`_fast_row` (vim
    interiors excluded -- their sequences must be counted exactly) and
    adds the line's statistics contributions analytically: a plain or
    SGR-only line executes exactly one LF, one CR per trailing carriage
    return, one TAB per tab glyph, and dispatches exactly its SGR
    sequences (reference vtparser.py:632,675).
    """
    if _fast_row(sc, memo, text, plain, False, sgr_only, stats=True) is None:
        return False
    cf = sc.stats["control_function"]
    cf[0x0A] = cf.get(0x0A, 0) + 1
    n_cr = len(text) - len(text.rstrip("\r"))
    if n_cr:
        cf[0x0D] = cf.get(0x0D, 0) + n_cr
    n_tab = text.count("\t")
    if n_tab:
        cf[0x09] = cf.get(0x09, 0) + n_tab
    if sgr_only and not plain:
        csi = sc.stats["csi"]
        for params in _SGR_FINDALL.findall(text):
            k = "Esc[" + params + "m"
            csi[k] = csi.get(k, 0) + 1
    return True


def records_to_table(
    conv_id: str, recs, ts_vals=None, texts=None, carry=None
) -> pa.Table:
    """Assemble TurnRecords (e.g. from the chunk-parallel scan) into the
    standard SCAN_SCHEMA table, through the same column lists,
    per-command backfill and role rule as the grouped scans.

    ``carry``: optional (cmd_text, cmd_cwd) dict pair for incremental
    assembly of one conversation across successive calls (the giant-
    conversation path emits one output file per chunk): a command row
    whose turns span a chunk boundary backfills from the carried maps,
    which this call updates in place.
    """
    n = len(recs)
    out = _Turns()
    for r in recs:
        out.record(r)
    out.convs.append((0, n))
    if ts_vals is None:
        ts_arr = pa.nulls(n, pa.timestamp("us"))
    elif isinstance(ts_vals, pa.ChunkedArray):
        ts_arr = ts_vals.combine_chunks()
    elif isinstance(ts_vals, pa.Array):
        ts_arr = ts_vals
    else:
        ts_arr = pa.array(ts_vals, pa.timestamp("us"))
    return out.table(
        pa.array([conv_id] * n, pa.string()),
        pa.array([r.turn_idx for r in recs], pa.int32()),
        ts_arr,
        None if texts is None else pa.array(texts, pa.string()),
        carry,
    )
