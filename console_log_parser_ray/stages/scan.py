"""The session scan: ``scan_bucket_table`` over an Arrow table.

The table holds whole conversations -- one partition of the flagship
kernel, one conversation-complete file, or one hash bucket of a
Dataset; the scan sorts by ``(conv_id, turn_idx)``, walks one
SessionScanner per conversation over the lines, and returns one
structured row per turn.

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
  printable ASCII and SGR runs, then ``$``): the title, the prompt-OSC
  trigger and the ``$`` are applied through the scanner's own methods,
  and only the typed tail from the ``$`` on is tokenized and walked,
* *title-only lines* (the same prefix, no ``$``): a prompt start, then
  an ordinary output line,
* plain and SGR-only lines inside the MINGW protocol (PROMPT_OSC /
  PROMPT_IMMINENT): the header check, then an ordinary output line --

while vim boundaries and anything carrying parser state take the exact
slow path.  The fast paths are only *hints*; the scanner re-checks its
own state (FSM state, tokenizer carry, pending vim re-entry, pending
line text) before trusting them, so output is bit-identical to the full
walk (asserted against the exact walk by tests/test_prompt_fast_path.py,
which needs no reference oracle).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..vt import session as S
from ..vt.session import SessionScanner
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


def _fast_hints(texts: pa.ChunkedArray):
    """Vectorized line classification for the scanner fast paths."""
    no_hint = pc.invert(pc.match_substring(texts, _HINT_LIT))
    plain = pc.and_(pc.match_substring_regex(texts, _PLAIN), no_hint)
    vim_safe = pc.invert(pc.match_substring_regex(texts, _VIM_RISKY))
    has_esc = pc.match_substring(texts, "\x1b")
    sgr_only = pc.and_(
        has_esc, pc.and_(pc.match_substring_regex(texts, _SGR_ONLY), no_hint)
    )
    stripped = pc.replace_substring_regex(texts, _SGR_RUN, "")
    # the noise-only class is tested lazily per row (Python regex) only
    # for rows that would otherwise take the full scan: a column-wide
    # RE2 pass with that alternation costs more than it saves
    return (
        plain.to_numpy(zero_copy_only=False),
        vim_safe.to_numpy(zero_copy_only=False),
        sgr_only.to_numpy(zero_copy_only=False),
        stripped,
    )


def _scan_rows(sc: SessionScanner, texts, turn_idxs, has_eols, hints, lo, hi):
    """Records of one conversation's rows ``[lo, hi)`` (in turn order):
    a state-checked fast path where the hints allow, the exact walk
    otherwise."""
    fast = hints is not None and not sc.collect_stats
    if fast:
        plain, vim_safe, sgr_only, stripped = hints
    recs = []
    for r in range(lo, hi):
        text = texts[r]
        eol = True if has_eols is None else bool(has_eols[r])
        rec = None
        if fast and eol:
            rec = _try_fast(
                sc,
                int(turn_idxs[r]),
                text,
                bool(plain[r]),
                bool(vim_safe[r]),
                bool(sgr_only[r]),
                stripped[r],
            )
        if rec is None:
            rec = sc.scan_turn(int(turn_idxs[r]), text, eol)
        recs.append(rec)
    return recs


def _command_meta(recs, carry=None):
    """Per-turn ``(roles, commands, cwds)``: command text and cwd are
    backfilled over each command row (``cmd_count``).

    ``carry``: optional (cmd_text, cmd_cwd) dict pair, updated in place,
    for one conversation assembled across successive calls.
    """
    cmd_text, cmd_cwd = carry if carry is not None else ({}, {})
    for r in recs:
        if r.command is not None:
            cmd_text.setdefault(r.cmd_count, r.command)
        if r.cwd:
            cmd_cwd.setdefault(r.cmd_count, r.cwd)
    roles = [
        "system"
        if r.cmd_count == 0
        else "user"
        if r.is_prompt or r.prompt_active or r.command is not None or r.cwd
        else "assistant"
        for r in recs
    ]
    commands = [cmd_text.get(r.cmd_count, "") for r in recs]
    cwds = [cmd_cwd.get(r.cmd_count, "") for r in recs]
    return roles, commands, cwds


def _scan_table(conv_ids, recs, meta, ts_arr, texts) -> pa.Table:
    """SCAN_SCHEMA table of scanned records; ``texts`` (or None) feeds
    ``vim_text`` on in-vim turns."""
    roles, commands, cwds = meta
    arrays = [
        pa.array(conv_ids, pa.string()),
        pa.array([r.turn_idx for r in recs], pa.int32()),
        ts_arr,
        pa.array(roles, pa.string()),
        pa.array([r.clean_text for r in recs], pa.string()),
        pa.array([r.cmd_count for r in recs], pa.int32()),
        pa.array([r.cmd_number for r in recs], pa.int32()),
        pa.array([r.is_prompt for r in recs], pa.bool_()),
        pa.array(commands, pa.string()),
        pa.array(cwds, pa.string()),
        pa.array([r.in_vim for r in recs], pa.bool_()),
        pa.array([r.vim_session_id for r in recs], pa.int32()),
        pa.array([r.osc_title for r in recs], pa.string()),
        pa.array([r.warnings for r in recs], pa.int32()),
        pa.array(
            [t if r.in_vim else None for t, r in zip(texts, recs)]
            if texts is not None
            else [None] * len(recs),
            pa.string(),
        ),
    ]
    return pa.Table.from_arrays(arrays, schema=SCAN_SCHEMA)


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
    recs = _scan_rows(sc, texts, turn_idxs, has_eols, hints, 0, len(texts))
    roles, commands, cwds = _command_meta(recs)
    return {
        "conv_id": [conv_id] * len(recs),
        "turn_idx": [r.turn_idx for r in recs],
        "ts": ts_vals,
        "role": roles,
        "clean_text": [r.clean_text for r in recs],
        "cmd_count": [r.cmd_count for r in recs],
        "cmd_number": [r.cmd_number for r in recs],
        "is_prompt": [r.is_prompt for r in recs],
        "command": commands,
        "cwd": cwds,
        "in_vim": [r.in_vim for r in recs],
        "vim_session_id": [r.vim_session_id for r in recs],
        "osc_title": [r.osc_title for r in recs],
        "warnings": [r.warnings for r in recs],
    }, sc


_NOISE_ONLY_RE = re.compile(_NOISE_ONLY)
_SGR_RUN_RE = re.compile(_SGR_RUN)
# OSC-title prompt prefix: a BEL-terminated "0;" title of printable
# ASCII, then a header of printable ASCII other than '$' and SGR runs.
# The match ends at the prompt's '$' (one-line prompt) or at the end of
# the text (title-only line); anything else takes the exact path.
_OSC_PREFIX_RE = re.compile(
    "\\x1b\\]0;([\\x20-\\x7e]*)\\x07((?:[\\x20-\\x23\\x25-\\x7e]|\\x1b\\[[0-9;]*m)*)"
)
# literals gating the three vim-start patterns (SessionScanner._parse_line)
_VIM_START_LITS = (
    b"hint: Waiting",
    b"\x1b[22;2t\x1b[22;1t",
    b"\x1b[2;1H\xe2\x96\xbd\x1b[6n",
)


def _try_fast(sc: SessionScanner, idx, text, plain, vim_safe, sgr_only, stripped, noise=None):
    """State-checked fast paths; None means take the exact slow path.

    ``noise=False`` (stats mode) keeps every line whose escapes are not
    all SGR runs on the exact path: their sequences must be counted.
    """
    if sc.tok.state != GROUND or sc.tok.utf8_need or sc.next_vim > 0:
        return None
    tlp = sc.tlp

    # vim interior: everything is dropped; only session-control escapes
    # or a dirty tokenizer tail force the exact path
    if tlp in (S.VIM_START, S.VIM_ONELINE):
        if not vim_safe or sc.in_prompt:
            return None
        rec = S.TurnRecord(idx)
        rec.cmd_count = sc.cmd_count
        rec.cmd_number = sc.cmd_number
        rec.in_vim = True
        rec.vim_session_id = sc.vim_session_seq
        sc._last_rec = rec
        return rec

    # in_prompt at line start means the command line is pending flush,
    # which happens exactly when tlp == PROMPT: the line-start step
    # below runs _emit_normal (prompt_end -> command write, in_prompt
    # cleared) before touching the body, so those lines stay eligible.
    if (sc.in_prompt and tlp != S.PROMPT) or sc.in_vim or sc.term_line.size() > 0:
        return None
    osc = raw = hit = None
    if plain or sgr_only:
        noise = False
    elif noise is False:
        return None
    elif text.startswith("\x1b]0;"):
        osc = _OSC_PREFIX_RE.match(text)
        if osc is None:
            return None
        dollar = osc.end()
        if dollar < len(text):
            if text[dollar] != "$":
                return None
            # one-line prompt: the title's prompt-OSC trigger must fire
            # in the header, and the tail must not start a vim session
            raw = text.encode("utf-8", "surrogatepass") + b"\n"
            for lit in _VIM_START_LITS:
                if lit in raw:
                    return None
            hit = S.osc_prompt_hit(raw, osc.start(2), "0;" + osc.group(1))
            if hit is None or hit[0] >= dollar:
                return None
        # else a title-only line: no '$' after the title, so no trigger
        # fires and no vim-start pattern can match (VIM_START_0 is
        # anchored at the line start, the others need non-SGR CSIs)
        noise = False
    elif _HINT_LIT in text or not _NOISE_ONLY_RE.match(text):
        return None
    else:
        noise = True

    # PROMPT_OSC / PROMPT_IMMINENT: a plain or SGR-only line has no '$',
    # so no positional trigger can fire; noise lines stay exact (a DCS
    # payload such as 1$r0m can complete a PROMPT match)
    if tlp in (S.PROMPT_OSC, S.PROMPT_IMMINENT) and (noise or osc is not None):
        return None

    rec = S.TurnRecord(idx)
    sc._rec = rec
    if tlp in (S.PROMPT, S.VIM_ENDING):
        sc._emit_normal()  # prompt_end (writes the command line) / vim_end
        sc.tlp = S.NORMAL
    elif tlp == S.PROMPT_OSC and "MINGW64" in text:
        sc._prompt_header(text.encode("utf-8", "surrogatepass") + b"\n")

    # the vim-start detection block ran and found nothing
    sc.vim_2200_seen = False

    if osc is not None:
        sc._trig_cache = {}
        sc._on_osc("0;" + osc.group(1))  # prompt start; tlp PROMPT_OSC
        body = _SGR_RUN_RE.sub("", osc.group(2))
        if raw is not None:
            # apply the prefix up to the '$', then walk the typed tail
            dollar = osc.end()
            sc._fire_trigger(raw, hit)  # tlp PROMPT_IMMINENT, cwd
            sc._on_print(body)
            sc._fire_trigger(raw, (dollar, "dollar", None))  # tlp PROMPT
            sc._walk(raw, dollar)
            return sc._end_turn(rec)
    elif noise:
        # DECCKM toggles on this line update app-mode pairing positions
        # (the reference records the position of the final byte,
        # terminalparser.py:358-361); nothing else survives skipping.
        raw = text.encode("utf-8", "surrogatepass")
        p = raw.rfind(b"\x1b[?1h")
        if p >= 0:
            sc.ckm_set_pos = p + 4
        p = raw.rfind(b"\x1b[?1l")
        if p >= 0:
            sc.ckm_reset_pos = p + 4
        body = _NOISE_STRIP_RE.sub("", text).rstrip("\r")
    elif sgr_only and not plain:
        body = stripped.as_py().rstrip("\r")
    else:
        body = text.rstrip("\r")
    if not sc.suppressed:
        rec.clean_text += body + "\n"
    return sc._end_turn(rec)


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
    hint masks, one output table.
    """
    if tbl.num_rows == 0:
        return SCAN_SCHEMA.empty_table()
    suppress_map = suppress_map or {}
    tbl = tbl.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    conv_ids = tbl.column("conv_id").to_pylist()
    texts = tbl.column("text").to_pylist()
    turn_idxs = tbl.column("turn_idx").to_numpy(zero_copy_only=False)
    has_eols = (
        tbl.column("has_eol").to_pylist()
        if "has_eol" in tbl.schema.names
        else None
    )
    hints = _fast_hints(tbl.column("text")) if use_fast_paths else None

    n = len(conv_ids)
    recs, roles, commands, cwds = [], [], [], []
    i = 0
    while i < n:
        j = i
        cid = conv_ids[i]
        while j < n and conv_ids[j] == cid:
            j += 1
        sc = SessionScanner(
            suppress=suppress_map.get(cid, ()), collect_stats=collect_stats
        )
        conv = _scan_rows(sc, texts, turn_idxs, has_eols, hints, i, j)
        conv_roles, conv_commands, conv_cwds = _command_meta(conv)
        recs += conv
        roles += conv_roles
        commands += conv_commands
        cwds += conv_cwds
        i = j

    ts_vals = (
        tbl.column("ts").combine_chunks()
        if "ts" in tbl.schema.names
        else pa.nulls(n, pa.timestamp("us"))
    )
    return _scan_table(conv_ids, recs, (roles, commands, cwds), ts_vals, texts)


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
            plain, _vim_safe, sgr_only, stripped = _fast_hints(
                tbl.column("text")
            )
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
                rec = None
                if use_fast_paths and eol:
                    rec = _try_fast_stats(
                        sc,
                        r - i,
                        texts[r],
                        bool(plain[r]),
                        bool(sgr_only[r]),
                        stripped[r],
                    )
                if rec is None:
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


def _try_fast_stats(sc, idx, text, plain, sgr_only, stripped):
    """Stats-mode fast path for plain / SGR-only lines.

    Reuses the state-checked fast transitions of :func:`_try_fast` (vim
    interiors excluded -- their sequences must be counted exactly) and
    adds the line's statistics contributions analytically: a plain or
    SGR-only line executes exactly one LF, one CR per trailing carriage
    return, one TAB per tab glyph, and dispatches exactly its SGR
    sequences (reference vtparser.py:632,675).
    """
    tlp = sc.tlp
    if tlp in (S.VIM_START, S.VIM_ONELINE):
        return None
    # noise lines are excluded in stats mode (their sequences count):
    # noise=False disables the lazy check
    rec = _try_fast(sc, idx, text, plain, False, sgr_only, stripped, noise=False)
    if rec is None:
        return None
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
    return rec


def records_to_table(
    conv_id: str, recs, ts_vals=None, texts=None, carry=None
) -> pa.Table:
    """Assemble TurnRecords (e.g. from the chunk-parallel scan) into the
    standard SCAN_SCHEMA table, applying the same per-command backfill
    and role derivation as the grouped scans.

    ``carry``: optional (cmd_text, cmd_cwd) dict pair for incremental
    assembly of one conversation across successive calls (the giant-
    conversation path emits one output file per chunk): a command row
    whose turns span a chunk boundary backfills from the carried maps,
    which this call updates in place.
    """
    n = len(recs)
    if ts_vals is None:
        ts_arr = pa.nulls(n, pa.timestamp("us"))
    elif isinstance(ts_vals, pa.ChunkedArray):
        ts_arr = ts_vals.combine_chunks()
    elif isinstance(ts_vals, pa.Array):
        ts_arr = ts_vals
    else:
        ts_arr = pa.array(ts_vals, pa.timestamp("us"))
    return _scan_table(
        [conv_id] * n, recs, _command_meta(recs, carry), ts_arr, texts
    )
