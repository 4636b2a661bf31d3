"""Optional HTML presentation stage (off the conformance path).

Parity targets: SGR -> styled-span conversion incl. stack surgery for
selective closes (reference terminal2html.py:249-355), HTML entity
escaping (reference terminal2html.py:48-53), palette tables (reference
terminal2html.py:55-94), per-session documents with command rows,
chapter headings and hop links (reference terminal2html.py:362-422),
and the cross-session index (reference main.py:29-128).

Differences by design (documented in CONFORMANCE.md): colors are
emitted as inline styles from the palette dictionaries instead of a CSS
class sheet, and styled spans are derived by re-tokenizing each raw
turn -- exact for output lines; command lines are rendered from their
reconstructed plain text (the reference likewise drops SGR inside
command lines, reference terminal2html.py:647).
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..vt.tokenizer import LineTokenizer

_ESC_MAP = {"&": "&amp;", ">": "&gt;", "<": "&lt;", '"': "&quot;"}
_ESC_RE = re.compile(r"[&><\"]")

# 16-color palettes (color values per the reference's schemes,
# reference terminal2html.py:55-94)
PALETTES = {
    "Dracula": [
        "#282a36", "#ee3c3c", "#66de3d", "#ffb86c", "#5443bc", "#bd93f9",
        "#77d6fb", "#f8f8f2", "#44475a", "#ff5555", "#50fa7b", "#f1fa8c",
        "#729fcf", "#ff79c6", "#8be9fd", "#f8f8f2",
    ],
    "MyDracula": [
        "#21222c", "#ff5555", "#50fa7b", "#f1fa8c", "#bd93f9", "#ff79c6",
        "#8be9fd", "#f8f8f2", "#6272a4", "#ff6e6e", "#69ff94", "#ffffa5",
        "#d6acff", "#ff92df", "#a4ffff", "#ffffff",
    ],
    "TangoDark": [
        "#000000", "#cc0000", "#4e9a06", "#c4a000", "#3465a4", "#ad7fa8",
        "#06989a", "#d3d7cf", "#555753", "#ef2929", "#8ae234", "#fce94f",
        "#729fcf", "#d6acff", "#34e2e2", "#eeeeec",
    ],
}


# Presentation policies (reference terminal2html.py:86-94): DarkBg
# picks the default fg/bg palette slots and the bold-default-fg color;
# BoldAsBright renders bold+base-color as the bright palette variant
# with the policy's font weight.
DARK_BG = {
    True: {"F9": 7, "B9": 0, "bF9": 15},
    False: {"F9": 0, "B9": 7, "bF9": 8},
}
BOLD_AS_BRIGHT = {True: {"fw": "normal"}, False: {"fw": "bold"}}


def escape_html(s: str) -> str:
    return _ESC_RE.sub(lambda m: _ESC_MAP[m.group()], s)


def escape_html_array(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized escape_html over a string column.

    '&' is replaced first so later replacements cannot double-escape --
    the same fixed order the scalar map applies (reference
    terminal2html.py:48-53)."""
    import pyarrow.compute as pc

    for src, dst in (("&", "&amp;"), (">", "&gt;"), ("<", "&lt;"),
                     ('"', "&quot;")):
        arr = pc.replace_substring(arr, pattern=src, replacement=dst)
    return arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr


class SgrSpans:
    """SGR parameter stream -> HTML span opens/closes with a stack.

    Selective closes (22/24/27/39/49) remove the matching directive from
    anywhere in the stack, closing and reopening the directives above it
    -- the reference's span surgery (reference terminal2html.py:332-355).
    """

    _CLOSERS = {
        "22": "bold",
        "24": "underline",
        "27": "reverse",
        "39": "fg",
        "49": "bg",
    }

    def __init__(
        self,
        palette: str = "MyDracula",
        dark_bg: bool = True,
        bold_as_bright: bool = True,
    ):
        self.colors = PALETTES.get(palette, PALETTES["MyDracula"])
        self.stack = []  # (kind, css, base_idx)
        self.dark_bg = dark_bg
        self.bold_as_bright = bold_as_bright
        self.fw = BOLD_AS_BRIGHT[bold_as_bright]["fw"]
        # bold-on-default-fg color: the bright bF9 slot only under the
        # BoldAsBright policy, else the plain F9 default-fg slot
        # (reference terminal2html.py:218)
        key = "bF9" if bold_as_bright else "F9"
        self.bf9 = self.colors[DARK_BG[dark_bg][key]]

    def _base_fg(self):
        """Innermost active base-color (0-7) fg, or None."""
        for kind, _css, base in reversed(self.stack):
            if kind == "fg":
                return base
        return None

    def _bold_active(self) -> bool:
        return any(k == "bold" for k, _c, _b in self.stack)

    def _open(self, kind: str, css: str, base=None) -> str:
        self.stack.append((kind, css, base))
        return '<span style="{}">'.format(css)

    def _close_kind(self, kind: str) -> str:
        idx = None
        for i in range(len(self.stack) - 1, -1, -1):
            if self.stack[i][0] == kind:
                idx = i
                break
        if idx is None:
            return ""
        out = "</span>" * (len(self.stack) - idx)
        removed = self.stack[idx + 1 :]
        del self.stack[idx:]
        for k, css, base in removed:
            self.stack.append((k, css, base))
            out += '<span style="{}">'.format(css)
        return out

    def convert(self, params: str) -> str:
        if params in ("", "0", "00"):
            out = "</span>" * len(self.stack)
            self.stack = []
            return out
        parts = params.split(";")
        out = []
        if parts[0] in ("38", "48") and len(parts) >= 3:
            prop = "color" if parts[0] == "38" else "background-color"
            if parts[1] == "5" and len(parts) >= 3:
                try:
                    n = int(parts[2])
                except ValueError:
                    return ""
                col = self.colors[n] if n < 16 else _xterm256(n)
                out.append(self._open("fg" if parts[0] == "38" else "bg",
                                      f"{prop}:{col}"))
            elif parts[1] == "2" and len(parts) >= 5:
                r, g, b = parts[-3], parts[-2], parts[-1]
                out.append(self._open("fg" if parts[0] == "38" else "bg",
                                      f"{prop}:rgb({r},{g},{b})"))
            return "".join(out)
        for p in parts:
            try:
                v = int(p)
            except ValueError:
                continue
            if 30 <= v <= 37:
                base = v - 30
                if self._bold_active():
                    # .bold > .fN: the reference CSS applies the bright
                    # variant UNCONDITIONALLY when bold combines with a
                    # base color -- BoldAsBright only selects the font
                    # weight (normal vs bold), never the color
                    # (reference terminal2html.py:119-126)
                    css = "color:{};font-weight:{}".format(
                        self.colors[base + 8], self.fw
                    )
                else:
                    css = f"color:{self.colors[base]}"
                out.append(self._open("fg", css, base=base))
            elif 40 <= v <= 47:
                out.append(
                    self._open("bg", f"background-color:{self.colors[v - 40]}")
                )
            elif 90 <= v <= 97:
                out.append(self._open("fg", f"color:{self.colors[v - 82]}"))
            elif 100 <= v <= 107:
                out.append(
                    self._open("bg", f"background-color:{self.colors[v - 92]}")
                )
            elif v == 1:
                base = self._base_fg()
                if base is not None:
                    # .fN > .bold: bright variant unconditionally,
                    # weight by the BoldAsBright policy (reference
                    # terminal2html.py:119-126)
                    css = "color:{};font-weight:{}".format(
                        self.colors[base + 8], self.fw
                    )
                else:
                    # default fg + bold: the policy-selected bf9 color
                    # (bF9 under BoldAsBright, plain F9 otherwise);
                    # weight stays bold (reference terminal2html.py:139-143)
                    css = f"color:{self.bf9};font-weight:bold"
                out.append(self._open("bold", css))
            elif v == 4:
                out.append(self._open("underline", "text-decoration:underline"))
            elif v == 5:
                out.append(self._open("blink", "text-decoration:blink"))
            elif v == 7:
                out.append(self._open("reverse", "filter:invert(1)"))
            elif p in self._CLOSERS:
                out.append(self._close_kind(self._CLOSERS[p]))
        return "".join(out)

    def close_all(self) -> str:
        out = "</span>" * len(self.stack)
        self.stack = []
        return out


def _xterm256(n: int) -> str:
    if n < 16:
        return "#000000"
    if n >= 232:
        v = 8 + (n - 232) * 10
        return "#{0:02x}{0:02x}{0:02x}".format(v)
    n -= 16
    r, g, b = n // 36, (n % 36) // 6, n % 6
    conv = lambda x: 0 if x == 0 else 55 + x * 40  # noqa: E731
    return "#{:02x}{:02x}{:02x}".format(conv(r), conv(g), conv(b))


def render_styled_line(
    raw: str,
    palette: str = "MyDracula",
    dark_bg: bool = True,
    bold_as_bright: bool = True,
) -> str:
    """Raw terminal line -> HTML with SGR colors, other controls dropped."""
    tok = LineTokenizer()
    sgr = SgrSpans(palette, dark_bg=dark_bg, bold_as_bright=bold_as_bright)
    out = []
    for ev in tok.feed_line(raw.encode("utf-8", "surrogatepass")):
        if ev[0] == "print":
            out.append(escape_html(ev[1]))
        elif ev[0] == "csi" and ev[4] == "m":
            out.append(sgr.convert(ev[2]))
    out.append(sgr.close_all())
    return "".join(out)


def build_asciinema_recording(frames, width=80, height=24) -> str:
    """(ts, data) frames -> an asciinema v2 recording string (JSON
    header line + one [t, "o", data] event line per frame, t relative
    to the first frame).  The payload the reference embeds base64 into
    its dropdown player (reference asciinema2html.py:131-149)."""
    import json as _json

    out = [
        _json.dumps(
            {"version": 2, "width": width, "height": height},
            separators=(", ", ": "),
        )
    ]
    t0 = frames[0][0] if frames else 0.0
    for ts, data in frames:
        out.append(
            _json.dumps([round(ts - t0, 6), "o", data], separators=(", ", ": "))
        )
    return "\n".join(out) + "\n"


def _vim_player_block(frames, session_id, review=False) -> str:
    """Dropdown asciinema player embedding one vim session's recording
    base64 inline (reference asciinema2html.py:105-149); in review mode
    the raw session dump rides along (reference asciinema2html.py:147-149)."""
    import base64 as _b64

    rec = build_asciinema_recording(frames)
    b64 = _b64.b64encode(rec.encode("utf-8")).decode("ascii")
    parts = [
        '<details class="vimsession-dropdown">\n',
        '<summary><span style="color:#9696cc">'
        "[==-- Vim editor session --==]</span></summary>\n",
        '<div class="vimsession-player-wrapper"><div>\n',
        '<asciinema-player idle-time-limit="3" speed="1.75" '
        'src="data:application/json;base64,{}" id="vimsess_{}"/>\n'.format(
            b64, session_id
        ),
        "</div>\n",
    ]
    if review:
        parts.append(
            '<pre class="vimsession-dump">{}</pre>\n'.format(escape_html(rec))
        )
    parts.append("</div></details>\n")
    return "".join(parts)


def render_conversation(
    rows: list,
    palette="MyDracula",
    title=None,
    review=False,
    review_hops=None,
    dark_bg=True,
    assets_rel=None,
) -> str:
    """One parsed conversation (sorted turn rows) -> an HTML document.

    rows need: turn_idx, clean_text, cmd_count, is_prompt, in_vim,
    chapter_title / hop_to / hop_label / suppressed / vim_text / ts
    (optional).  Vim sessions with raw frame data (vim_text) embed a
    dropdown asciinema player; ``review`` adds frame timestamps and the
    raw session dumps, and ``review_hops`` -- (from_ts, to_ts) pairs
    from the twebber alignment -- render jump markers once their time
    passes (reference asciinema2html.py:85-100).  ``assets_rel`` (e.g.
    ``"acp/v2"``) links the shared player CSS/JS written by
    ``functions.assets.write_player_assets`` instead of leaving the
    <asciinema-player> tags bare (reference copy_asciinema_files,
    asciinema2html.py:383-397).
    """
    colors = PALETTES.get(palette, PALETTES["MyDracula"])
    body_fg = colors[DARK_BG[dark_bg]["F9"]]
    body_bg = colors[DARK_BG[dark_bg]["B9"]]
    head_extra = ""
    if assets_rel:
        from .assets import head_links

        head_extra = head_links(assets_rel)
    parts = [
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"/>",
        head_extra,
        "<title>{}</title></head>\n".format(escape_html(title or "session")),
        '<body style="background:{};color:{}"><pre>'.format(body_bg, body_fg),
    ]
    last_cmd = -1
    vim_frames = []  # pending (ts, data) for the open vim session
    vim_sid = None
    rev_hops = sorted(review_hops or [])
    rev_i = 0

    def flush_vim():
        nonlocal vim_frames, vim_sid
        if vim_frames:
            parts.append(_vim_player_block(vim_frames, vim_sid, review=review))
        vim_frames = []
        vim_sid = None

    def row_ts(r):
        ts = r.get("ts")
        if ts is None:
            return float(r.get("turn_idx", 0))
        try:
            return ts.timestamp()
        except AttributeError:
            return float(ts)

    for r in rows:
        if r.get("suppressed"):
            continue
        ts = row_ts(r)
        while rev_i < len(rev_hops) and rev_hops[rev_i][0] <= ts:
            parts.append(
                '<div class="review-cmd-hop">before TS {} detected jump to {}'
                "</div>\n".format(ts, rev_hops[rev_i][1])
            )
            rev_i += 1
        cmd = r["cmd_count"]
        if cmd != last_cmd and r.get("is_prompt"):
            flush_vim()
            parts.append("</pre>\n")
            ch = r.get("chapter_title")
            if ch:
                parts.append("<h3>{}</h3>\n".format(escape_html(ch)))
            hop = r.get("hop_to")
            if hop:
                parts.append(
                    '<div class="cmd-hop"><a href="{}">{}</a></div>\n'.format(
                        escape_html(hop),
                        escape_html(r.get("hop_label") or "jump"),
                    )
                )
            if review:
                parts.append(
                    '<div class="review-frame-ts">{:f}</div>\n'.format(ts)
                )
            parts.append(
                '<pre id="c{}"><span style="color:#579957">[{}]</span>\n'.format(
                    cmd, cmd
                )
            )
            last_cmd = cmd
        if r.get("in_vim"):
            if not vim_frames:
                vim_sid = r.get("vim_session_id", 0)
            vim_frames.append((ts, (r.get("vim_text") or "") + "\r\n"))
        else:
            flush_vim()
            parts.append(escape_html(r["clean_text"]))
    flush_vim()
    parts.append("</pre></body></html>\n")
    return "".join(parts)


def render_index(entries: list, title="Sessions") -> str:
    """Cross-session index page (reference main.py:29-128 analog).

    entries: (conv_id, title, n_cmds, chapters list).
    """
    parts = [
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"/>",
        "<title>{}</title></head><body><h1>{}</h1><ul>\n".format(
            escape_html(title), escape_html(title)
        ),
    ]
    for conv_id, t, n_cmds, chapters in entries:
        parts.append(
            '<li><a href="{0}.html">{1}</a> ({2} commands)'.format(
                escape_html(conv_id), escape_html(t or conv_id), n_cmds
            )
        )
        if chapters:
            parts.append("<ul>")
            for cmd, ch in chapters:
                parts.append(
                    '<li><a href="{}.html#c{}">{}</a></li>'.format(
                        escape_html(conv_id), cmd, escape_html(ch)
                    )
                )
            parts.append("</ul>")
        parts.append("</li>\n")
    parts.append("</ul></body></html>\n")
    return "".join(parts)


def index_entries(parsed_ds, n_buckets: int = 256):
    """Cross-session index rows with first-wins title dedup (the
    reference index keeps the first session per title and drops later
    duplicates, reference main.py:29-128).

    Data-plane formulation: a vectorized in-batch partial (one Arrow
    group_by per block) -> one small groupby("conv_id") reduce -> a
    bucketed first-wins dedup on title (group count bounded by
    n_buckets, not title cardinality).  Returns (title, conv_id,
    n_cmds) -- the winning conversation per distinct title.
    """
    import pyarrow.compute as pc

    from ..sources.cache import map_keyed

    def partial(tbl: pa.Table) -> pa.Table:
        title_key = pc.if_else(
            pc.equal(tbl.column("cmd_count"), 1),
            tbl.column("command"),
            pa.nulls(tbl.num_rows, pa.string()),
        )
        t = pa.table(
            {
                "conv_id": tbl.column("conv_id"),
                "cmd_count": pc.cast(tbl.column("cmd_count"), pa.int64()),
                "title_key": title_key,
            }
        )
        return t.group_by(["conv_id"]).aggregate(
            [("cmd_count", "max"), ("title_key", "min")]
        )

    from ray.data.aggregate import Max, Min

    per_conv = (
        parsed_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(Max("cmd_count_max"), Min("title_key_min"))
    )

    def dedup_bucket(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas().sort_values(["title", "conv_id"])
        df = df.drop_duplicates("title", keep="first")
        return pa.Table.from_pandas(
            df[["title", "conv_id", "n_cmds"]], preserve_index=False
        )

    def rename(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "title": pc.fill_null(tbl.column("min(title_key_min)"), ""),
                "conv_id": tbl.column("conv_id"),
                "n_cmds": tbl.column("max(cmd_count_max)"),
            }
        )

    return map_keyed(
        per_conv.map_batches(rename, batch_format="pyarrow"),
        dedup_bucket,
        key="title",
        n_buckets=n_buckets,
    )


def html_sink(parsed_ds, out_dir: str, palette: str = "MyDracula"):
    """Optional routed sink: one HTML document per conversation plus an
    index.

    The per-conversation documents are rendered AND written inside the
    grouped tasks (atomic tmp+rename, so a retried task can never leave
    a truncated file); only the tiny (conv_id, n_cmds) index rows travel
    back to the driver for the single index.html write.

    Scale shape: conversations shuffle by a conv-hash bucket (task
    dispatch bounded by the bucket count, never the conversation
    count); each bucket task renders its conversations in turn.
    """
    import os

    from ..sources.cache import map_keyed, per_key
    from .assets import assets_rel_dir, write_player_assets

    os.makedirs(out_dir, exist_ok=True)
    # shared player assets once per output tree, before any task runs
    # (reference copy_asciinema_files)
    write_player_assets(out_dir)
    rel = assets_rel_dir()

    def per_conv(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by("turn_idx")
        conv = tbl.column("conv_id")[0].as_py()
        cols = tbl.to_pylist()
        html = render_conversation(
            cols, palette=palette, title=conv, assets_rel=rel
        )
        n_cmds = max((r["cmd_count"] for r in cols), default=0)
        path = os.path.join(out_dir, conv + ".html")
        tmp = path + ".tmp.{}".format(os.getpid())
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(html)
        os.replace(tmp, path)
        return pa.table(
            {
                "conv_id": pa.array([conv], pa.string()),
                "n_cmds": pa.array([n_cmds], pa.int64()),
            }
        )

    docs = map_keyed(parsed_ds, per_key(per_conv))
    entries = [
        (row["conv_id"], row["conv_id"], row["n_cmds"], [])
        for row in docs.iter_rows()
    ]
    with open(os.path.join(out_dir, "index.html"), "w", encoding="utf-8") as fh:
        fh.write(render_index(sorted(entries)))
    return len(entries)
