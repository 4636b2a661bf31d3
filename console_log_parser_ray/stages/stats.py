"""Tokenizer-level sequence-statistics engine.

The sequence histogram (reference vtparser.py:552-559,744-787) depends
ONLY on tokenizer events -- control executes, CSI/ESC dispatches, DCS
hooks, OSC/DCS strings -- never on the session feature FSM or the line
builders.  This module counts those events without running the session
scanner at all, three tiers per line:

1. **Analytic** (no ESC, no C1, only the common C0s TAB/CR/BS): the
   contributions are one LF plus per-character counts, read from
   vectorized Arrow kernels computed once per batch.
2. **Fast regex** (ESC present, every escape sequence complete and
   well-formed with printable bodies): one alternation ``finditer``
   enumerates the sequences exactly as the tokenizer would dispatch
   them; the stripped residue yields the loose-C0 executes.  Any
   mismatch (unconsumed ESC, C1 code point, DCS that would take the
   ignore path, C0 inside a body) falls through.
3. **Exact** (everything else, and any line while the tokenizer is
   dirty): feed the real :class:`LineTokenizer` and count its events.

Counts are bit-identical to the SessionScanner's ``collect_stats``
dicts (differential-tested on the reference corpus, the synthetic
corpus, and hostile fuzz conversations).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..vt.tokenizer import LineTokenizer

# one alternation per tokenizer sequence class; bodies are printable
# ASCII only, so any embedded C0 / GR byte forces the exact path
_SEQ_ANY = re.compile(
    "\x1b\\[[\x30-\x3f]*[\x20-\x2f]*[\x40-\x7e]"
    "|\x1b\\][\x20-\x7e]*?(?:\x07|(?=\x1b))"
    "|\x1bP[\x30-\x3f]*[\x20-\x2f]*[\x40-\x7e][\x20-\x7e]*?\x1b\\\\"
    "|\x1b[X^_][\x20-\x7e]*?(?=\x1b)"
    "|\x1b[\x20-\x2f]+[\x30-\x7e]"
    # short escapes: finals that dispatch from ESCAPE (string/CSI
    # introducers [, ], P, X, ^, _ excluded)
    "|\x1b[\x30-\x4f\x51-\x57\x59\x5a\x5c\x60-\x7e]"
)
_CSI_S = re.compile("\x1b\\[([\x30-\x3f]*)([\x20-\x2f]*)([\x40-\x7e])")
_DCS_S = re.compile(
    "\x1bP([\x30-\x3f]*)([\x20-\x2f]*)([\x40-\x7e])([\x20-\x7e]*?)\x1b\\\\",
    re.S,
)
_ESC_S = re.compile("\x1b([\x20-\x2f]*)([\x30-\x7e])")
_C0_RE = re.compile("[\x00-\x1a\x1c-\x1f]")  # ESC itself can't survive


def _classify_str(body: str, interm: str, final: str):
    """String twin of tokenizer._csi_classify: (private, params,
    interm, final) for a dispatching sequence, None for CSI_IGNORE."""
    private = ""
    params = ""
    i, n = 0, len(body)
    if i < n and "\x3c" <= body[i] <= "\x3f":
        private = body[i]
        i += 1
    while i < n:
        ch = body[i]
        if "0" <= ch <= "9" or ch == ";":
            params += ch
            i += 1
        else:
            return None
    return private, params, interm, final


class ConvStats:
    """Per-conversation counters matching SessionScanner.stats plus the
    osc/dcs string sets."""

    __slots__ = ("cf", "esc", "csi", "dcsf", "osc_seen", "dcs_seen")

    def __init__(self):
        self.cf = {}
        self.esc = {}
        self.csi = {}
        self.dcsf = {}
        self.osc_seen = set()
        self.dcs_seen = set()

    def count_events(self, events):
        for ev in events:
            kind = ev[0]
            if kind == "exec":
                self.cf[ev[1]] = self.cf.get(ev[1], 0) + 1
            elif kind == "csi":
                k = "Esc[" + ev[1] + ev[2] + ev[3] + ev[4]
                self.csi[k] = self.csi.get(k, 0) + 1
            elif kind == "esc":
                k = "Esc" + ev[1] + ev[2]
                self.esc[k] = self.esc.get(k, 0) + 1
            elif kind == "osc":
                self.osc_seen.add(ev[1])
            elif kind == "dcs_hook":
                k = "EscP" + ev[1]
                self.dcsf[k] = self.dcsf.get(k, 0) + 1
            elif kind == "dcs_end":
                self.dcs_seen.add(ev[1])


def line_events_fast(line: str):
    """Dispatched sequence events of one self-contained escape-bearing
    line as (kind, value) pairs, plus the loose-C0 executes from the
    stripped residue; None => the caller must take the exact tokenizer
    path.  The trailing LF execute is NOT included (the caller knows
    whether the line carries an EOL)."""
    matches = _SEQ_ANY.findall(line)
    consumed = 0
    pending = []
    for s in matches:
        consumed += s.count("\x1b")
        c = s[1]
        if c == "[":
            g = _CSI_S.match(s)
            cls = _classify_str(g.group(1), g.group(2), g.group(3))
            if cls is not None:
                pending.append(("csi", "Esc[" + "".join(cls)))
            # else: CSI_IGNORE -- consumed, no dispatch
        elif c == "]":
            body = s[2:-1] if s.endswith("\x07") else s[2:]
            pending.append(("osc", body))
        elif c == "P":
            g = _DCS_S.match(s)
            if g is None:
                return None
            cls = _classify_str(g.group(1), g.group(2), g.group(3))
            if cls is None:
                # DCS_IGNORE entry-hook quirk: exact path handles it
                return None
            private, params, interm, final = cls
            pending.append(("dcsf", "EscP" + private + params + interm + final))
            payload = g.group(4)
            if "\x7f" in payload:
                payload = payload.replace("\x7f", "")
            pending.append(("dcs_end", payload))
            # the consumed ST dispatches as its own escape event
            # (tokenizer: unhook, then ESC \ through ESCAPE state)
            pending.append(("esc", "Esc\\"))
        elif c in "X^_":
            pass
        else:
            g = _ESC_S.match(s)
            pending.append(("esc", "Esc" + g.group(1) + g.group(2)))
    if consumed != line.count("\x1b"):
        return None
    residue = _SEQ_ANY.sub("", line)
    for ch in _C0_RE.findall(residue):
        pending.append(("exec", ord(ch)))
    return pending


def count_line_fast(line: str, st: ConvStats) -> bool:
    """Count one self-contained escape-bearing line; False => caller
    must take the exact tokenizer path."""
    pending = line_events_fast(line)
    if pending is None:
        return False
    for kind, val in pending:
        if kind == "csi":
            st.csi[val] = st.csi.get(val, 0) + 1
        elif kind == "esc":
            st.esc[val] = st.esc.get(val, 0) + 1
        elif kind == "osc":
            st.osc_seen.add(val)
        elif kind == "dcsf":
            st.dcsf[val] = st.dcsf.get(val, 0) + 1
        elif kind == "exec":
            st.cf[val] = st.cf.get(val, 0) + 1
        else:
            st.dcs_seen.add(val)
    st.cf[0x0A] = st.cf.get(0x0A, 0) + 1
    return True


def conversation_stats(texts, start, end, hints, has_eols=None) -> ConvStats:
    """Count one conversation's rows [start, end) using the tier masks
    in ``hints`` = (has_esc, has_c1_or_rare, n_tab, n_cr, n_bs)."""
    has_esc, has_risk, n_tab, n_cr, n_bs, n_bel = hints
    st = ConvStats()
    tok = None
    dirty = False
    cf = st.cf
    for r in range(start, end):
        eol = True if has_eols is None else bool(has_eols[r])
        if not dirty and eol and not has_risk[r]:
            if not has_esc[r]:
                cf[0x0A] = cf.get(0x0A, 0) + 1
                if n_tab[r]:
                    cf[0x09] = cf.get(0x09, 0) + n_tab[r]
                if n_cr[r]:
                    cf[0x0D] = cf.get(0x0D, 0) + n_cr[r]
                if n_bs[r]:
                    cf[0x08] = cf.get(0x08, 0) + n_bs[r]
                if n_bel[r]:
                    cf[0x07] = cf.get(0x07, 0) + n_bel[r]
                continue
            if count_line_fast(texts[r], st):
                continue
        if tok is None:
            tok = LineTokenizer()
        raw = texts[r].encode("utf-8", "surrogatepass")
        if eol:
            raw += b"\n"
        st.count_events(tok.feed_line(raw))
        dirty = tok.dirty
    return st


def stats_hints(texts_col):
    """Vectorized per-row tier masks for a batch's text column."""
    has_esc = pc.match_substring(texts_col, "\x1b").to_numpy(
        zero_copy_only=False
    )
    # C1 code points or uncommon C0s anywhere force the exact path
    # (ESC is NOT risk -- escape-bearing lines take the fast regex
    # tier; BEL is NOT risk -- inside an OSC it's the terminator the
    # fast tier consumes, outside it's an exec counted analytically)
    has_risk = pc.match_substring_regex(
        texts_col, "[\x00-\x06\x0b\x0c\x0e-\x1a\x1c-\x1f\x7f\x80-\x9f]"
    ).to_numpy(zero_copy_only=False)
    n_tab = pc.count_substring(texts_col, "\t").to_numpy(zero_copy_only=False)
    n_cr = pc.count_substring(texts_col, "\r").to_numpy(zero_copy_only=False)
    n_bs = pc.count_substring(texts_col, "\x08").to_numpy(zero_copy_only=False)
    n_bel = pc.count_substring(texts_col, "\x07").to_numpy(zero_copy_only=False)
    return has_esc, has_risk, n_tab, n_cr, n_bs, n_bel


def stats_table(tbl: pa.Table) -> pa.Table:
    """Whole-bucket (kind, seq, n) partials: per-conversation scans with
    the set-valued kinds counted once per conversation."""
    tbl = tbl.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    conv_ids = tbl.column("conv_id").to_pylist()
    texts = tbl.column("text").to_pylist()
    has_eols = (
        tbl.column("has_eol").to_pylist()
        if "has_eol" in tbl.schema.names
        else None
    )
    hints = stats_hints(tbl.column("text"))
    merged = {}
    i, n = 0, len(conv_ids)
    while i < n:
        j = i
        cid = conv_ids[i]
        while j < n and conv_ids[j] == cid:
            j += 1
        st = conversation_stats(texts, i, j, hints, has_eols)
        for code, v in st.cf.items():
            key = ("control_function", "0x{:02x}".format(code))
            merged[key] = merged.get(key, 0) + v
        for d, kind in (
            (st.esc, "escape"),
            (st.csi, "csi"),
            (st.dcsf, "dcs_function"),
        ):
            for k, v in d.items():
                key = (kind, k)
                merged[key] = merged.get(key, 0) + v
        for s in st.osc_seen:
            key = ("osc_string", s)
            merged[key] = merged.get(key, 0) + 1
        for s in st.dcs_seen:
            key = ("dcs_string", s)
            merged[key] = merged.get(key, 0) + 1
        i = j
    return pa.table(
        {
            "kind": pa.array([k for k, _ in merged], pa.string()),
            "seq": pa.array([s for _, s in merged], pa.string()),
            "n": pa.array(list(merged.values()), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Per-turn event IR (the user-extension surface of SURVEY §2.8)
# ---------------------------------------------------------------------------

_EVKIND = {
    "csi": "csi",
    "esc": "escape",
    "dcsf": "dcs_function",
    "osc": "osc_string",
    "dcs_end": "dcs_string",
}


def events_table(tbl: pa.Table) -> pa.Table:
    """Per-turn dispatched-event rows: (conv_id, turn_idx, kind, seq, n).

    The structured twin of the reference's handler hooks (terminal
    output / control-sequence / OSC / DCS handlers, vtparser.py:485-533):
    downstream stages subscribe to parser events by filtering these
    columns instead of subclassing a parser.  Print runs are excluded
    (they are the clean_text product); each control event appears with
    its per-turn occurrence count.  Uses the same three-tier engine as
    the histogram, so it is exact for arbitrary input.
    """
    tbl = tbl.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    conv_ids = tbl.column("conv_id").to_pylist()
    turn_idxs = tbl.column("turn_idx").to_pylist()
    texts = tbl.column("text").to_pylist()
    has_eols = (
        tbl.column("has_eol").to_pylist()
        if "has_eol" in tbl.schema.names
        else None
    )
    has_esc, has_risk, n_tab, n_cr, n_bs, n_bel = stats_hints(
        tbl.column("text")
    )
    out_c, out_t, out_k, out_s, out_n = [], [], [], [], []

    def emit(cid, tix, per_line: dict):
        for (kind, seq), cnt in per_line.items():
            out_c.append(cid)
            out_t.append(tix)
            out_k.append(kind)
            out_s.append(seq)
            out_n.append(cnt)

    i, n = 0, len(conv_ids)
    while i < n:
        j = i
        cid = conv_ids[i]
        while j < n and conv_ids[j] == cid:
            j += 1
        tok = None
        dirty = False
        for r in range(i, j):
            eol = True if has_eols is None else bool(has_eols[r])
            per_line = {}
            if not dirty and eol and not has_risk[r]:
                if not has_esc[r]:
                    per_line[("control_function", "0x0a")] = 1
                    for cnt, code in (
                        (n_tab[r], "0x09"),
                        (n_cr[r], "0x0d"),
                        (n_bs[r], "0x08"),
                        (n_bel[r], "0x07"),
                    ):
                        if cnt:
                            per_line[("control_function", code)] = int(cnt)
                    emit(cid, turn_idxs[r], per_line)
                    continue
                pending = line_events_fast(texts[r])
                if pending is not None:
                    for kind, val in pending:
                        if kind == "exec":
                            key = ("control_function", "0x{:02x}".format(val))
                        else:
                            key = (_EVKIND[kind], val)
                        per_line[key] = per_line.get(key, 0) + 1
                    key = ("control_function", "0x0a")
                    per_line[key] = per_line.get(key, 0) + 1
                    emit(cid, turn_idxs[r], per_line)
                    continue
            if tok is None:
                tok = LineTokenizer()
            raw = texts[r].encode("utf-8", "surrogatepass")
            if eol:
                raw += b"\n"
            for ev in tok.feed_line(raw):
                kind = ev[0]
                if kind == "exec":
                    key = ("control_function", "0x{:02x}".format(ev[1]))
                elif kind == "csi":
                    key = ("csi", "Esc[" + ev[1] + ev[2] + ev[3] + ev[4])
                elif kind == "esc":
                    key = ("escape", "Esc" + ev[1] + ev[2])
                elif kind == "osc":
                    key = ("osc_string", ev[1])
                elif kind == "dcs_hook":
                    key = ("dcs_function", "EscP" + ev[1])
                elif kind == "dcs_end":
                    key = ("dcs_string", ev[1])
                else:
                    continue  # print
                per_line[key] = per_line.get(key, 0) + 1
            dirty = tok.dirty
            emit(cid, turn_idxs[r], per_line)
        i = j
    return pa.table(
        {
            "conv_id": pa.array(out_c, pa.string()),
            "turn_idx": pa.array(out_t, pa.int32()),
            "kind": pa.array(out_k, pa.string()),
            "seq": pa.array(out_s, pa.string()),
            "n": pa.array(out_n, pa.int64()),
        }
    )


def extract_events(src, n_buckets: int = 64):
    """Event extraction over a path or Dataset of turns: one
    ``events_table`` call per file or conv bucket
    (``map_keyed``)."""
    from ..sources.cache import map_keyed

    return map_keyed(
        src,
        events_table,
        n_buckets=n_buckets,
        columns=["conv_id", "turn_idx", "text"],
    )
