"""Reference-free differential tests for the prompt-protocol fast paths.

``scan_bucket_table(use_fast_paths=True)`` must equal the exact walk
(``use_fast_paths=False``) on every output column: over seeded synthetic
tables, and over hand-built prompt-line variants aimed at each check the
fast paths make before trusting a line's shape (OSC-title one-line
prompts, title-only lines, plain/SGR lines inside the MINGW protocol,
vim session start and end lines), over hypothesis-generated typed tails
that exercise the cached typed-tail kernel on hits and misses, and over
hypothesis-generated vim start and end lines.
"""

import random
import re

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from console_log_parser_ray.sources.synth import gen_table
from console_log_parser_ray.stages.scan import (
    SCAN_SCHEMA,
    scan_bucket_table,
)
from console_log_parser_ray.vt.session import SessionScanner

TITLE = "\x1b]0;alice@devbox: ~/src\x07"
HEADER = "\x1b[01;32malice@devbox\x1b[00m:\x1b[01;34m~/src\x1b[00m"
PROMPT = TITLE + HEADER + "$ "
MINGW_TITLE = "\x1b]0;bob.d@build-7: ~/logs\x07"
MINGW_HEADER = "\x1b[32mbob.d@build-7 \x1b[35mMINGW64 \x1b[33m~/logs\x1b[0m"
VIM_START = "\x1b[?1049h\x1b[22;0;0t\x1b[1;40r\x1b[H\x1b[2J\x1b[22;2t\x1b[22;1t"
VIM_END = "\x1b[40;1H\x1b[?1049l\x1b[23;0;0t"

# one conversation per case: a list of lines, or of (line, has_eol)
CASES = {
    "plain_prompts": [PROMPT + "ls", "out", PROMPT + "pwd", "\x1b[33mdir\x1b[0m"],
    "dollar_in_title": [
        "\x1b]0;al$ce@devbox: ~/src\x07" + HEADER + "$ ls",
        "\x1b]0;alice@devbox:~/src$ \x07alice@devbox:~/src$ ls",
        "out",
    ],
    "cwd_not_in_title": [
        "\x1b]0;alice@devbox: ~/other\x07" + HEADER + "$ ls",
        "out",
        "\x1b]0;anything\x07alice@devbox:~$ ls",
        "out",
    ],
    "prompt_match_only_in_tail": [
        TITLE + "> $ echo alice@devbox:~/src$ x",
        "out",
        TITLE + "plain header $ echo",
        "out",
    ],
    "sgr_only_header": [
        TITLE + "\x1b[0m$ ls",
        "out",
        TITLE + "\x1b[0m",
        "out",
        TITLE,
        "",
    ],
    "vim_literals_in_tail": [
        PROMPT + "echo hint: Waiting for your editor to close the file... ",
        "out",
        PROMPT + "vim\x1b[22;0;0t\x1b[1;40r\x1b[22;2t\x1b[22;1t",
        "\x1b[5;1H\x1b[Knoise",
        VIM_END,
        PROMPT + "x\x1b[5;1r\x1b[2;1H\u25bd\x1b[6n\x1b[2;1H  ",
        "\x1b[5;1H\x1b[Knoise",
        VIM_END,
        PROMPT + "ls",
    ],
    "osc_in_tail": [
        PROMPT + "ls\x1b]0;other: ~/x\x07more",
        "out",
        PROMPT + "ls\x1b]0;alice@devbox: ~/src\x07alice@devbox:~/src$ pwd",
        "out",
        PROMPT + "ls\x1b]10;?\x07",
        "out",
        PROMPT + "tail\x1b]0;unterminated",
        "carried title\x07after",
        "out",
    ],
    "vim_end_and_app_mode_in_tail": [
        PROMPT + "vim x\x1b[23;0;0t",
        "out",
        PROMPT + "man ls\x1b[?1h\x1b=",
        "page",
        "q\x1b[?1l\x1b>alice@devbox:~/src$ next",
        "out",
        PROMPT + "q\x1b[?1l\x1b>alice@devbox:~/src$ next",
        "out",
    ],
    "edits_in_tail": [
        PROMPT + "lsqq\x08\x08\x1b[K",
        "out",
        PROMPT + "git st#tus\x08\x1b[2Da\x1b[2C",
        PROMPT + "echo \u03b1\u03b2 \u00e9\x1b[1P",
        "out",
        PROMPT + "abc\x1b[2@in\x1b[3D\x1b[1X",
        "out",
    ],
    "prompt_after_prompt": [PROMPT + "ls", PROMPT + "pwd", PROMPT, PROMPT + "x", "out"],
    "prompt_after_vim_end": [
        PROMPT + "vim notes.txt",
        VIM_START,
        "\x1b[5;1H\x1b[Knoise",
        VIM_END,
        PROMPT + "ls",
        "out",
        PROMPT + "vim b",
        VIM_START,
        "\x1b[5;1H\x1b[Knoise\x1b[?1l\x1b>",
        PROMPT + "ls",
        "out",
    ],
    "cr_endings": [
        PROMPT + "ls\r",
        "out\r",
        TITLE + HEADER + "\r",
        "out",
        TITLE + "\r",
        "out\r\r",
        PROMPT + "pwd\r\r",
        "out",
    ],
    "no_eol": [
        (PROMPT + "ls", False),
        ("more typed", True),
        ("out", True),
        (TITLE, False),
        (HEADER + "$ x", True),
        ("out", False),
        (PROMPT + "pwd", True),
        ("out", True),
    ],
    "mingw": [
        MINGW_TITLE,
        MINGW_HEADER,
        "$ ls -la",
        "out",
        MINGW_TITLE,
        "",
        "between\r",
        MINGW_HEADER,
        "\x1b[33mstill imminent\x1b[0m",
        "$ git status",
        "out",
        MINGW_TITLE,
        "\x1b[32mbob.d@build-7 \x1b[35mMINGW64 \x1b[33m~/elsewhere\x1b[0m",
        "$ ls",
        "out",
        MINGW_TITLE,
        "\x1bP1$r0m\x1b\\" + MINGW_HEADER,
        "\x1bP1$r0m\x1b\\words",
        "$ pwd",
        "out",
        MINGW_TITLE,
        "\x1bPqa ~/logs$ x\x1b\\words",
        "out",
        MINGW_TITLE,
        MINGW_HEADER,
        "\x1bP1$r0m\x1b\\words",
        "out",
        "\x1b]0;carol@Hobbes: ~\x07",
        "carol@Hobbes MINGW64 ~",
        "$ ls",
        "out",
    ],
    "title_only_with_header": [
        TITLE + HEADER,
        "alice@devbox:~/src$ ls",
        "out",
        TITLE + "MINGW64 header text",
        "$ ls",
        "out",
    ],
    "first_line_prompt": [PROMPT + "ls"],
    # vim boundaries the fast paths leave to the exact walk: a start by
    # the hint literal (alone, then with CSI 22;0;0t on the same line)
    # or by VIM_START_2, whose end no CSI 23;0;0t makes
    "vim_hint_start": [
        PROMPT + "git commit",
        "hint: Waiting for your editor to close the file... ",
        VIM_START,
        "\x1b[5;1H\x1b[Knoise",
        VIM_END,
        "out",
        PROMPT + "git commit",
        "hint: Waiting for your editor to close the file... " + VIM_START,
        VIM_END,
        "out",
    ],
    "vim_start_2": [
        PROMPT + "vim b",
        "\x1b[1;40r\x1b[2;1H\u25bd\x1b[6n\x1b[2;1H  ",
        "\x1b[5;1H\x1b[Knoise",
        VIM_END,
        "out",
        VIM_END,
        "out",
    ],
    # start and end on one line; then a one-line session that ?1l ESC >
    # leaves open (VIM_ONELINE), whose end line takes the exact walk
    "vim_one_line": [
        PROMPT + "vim c",
        VIM_START + "\x1b[5;1H" + VIM_END,
        "out",
        VIM_START + "\x1b[5;1H\x1b[?1l\x1b>",
        VIM_END,
        "out",
    ],
    # text, a prompt or a second session after CSI 23;0;0t
    "vim_end_then_more": [
        PROMPT + "vim d",
        VIM_START,
        VIM_END + "trailing",
        PROMPT + "vim d",
        VIM_START,
        VIM_END + "\r\x1b[Kalice@devbox:~/src$ ls",
        "out",
        PROMPT + "vim d",
        VIM_START,
        VIM_END + "hint: Waiting for your editor to close the file... " + VIM_START,
        "\x1b[5;1H\x1b[Knoise",
        VIM_END,
        VIM_END + "\x1b[1m",
        "out",
        PROMPT + "vim d",
        VIM_START,
        VIM_END + "\x1b[2C",
        PROMPT + "vim d",
        VIM_START,
        VIM_END + "\x1b[2@" + VIM_END,
        "out",
    ],
    # a line without LF leaves the terminal line dirty through the
    # session: its end line flushes what is left
    "vim_dirty_term_line": [
        ("abc", False),
        VIM_START,
        VIM_END,
        "out",
        ("\x1b[D", False),
        VIM_START,
        VIM_END,
        "out",
    ],
    "vim_no_eol": [
        PROMPT + "vim e",
        (VIM_START, False),
        "\x1b[5;1H\x1b[Knoise",
        (VIM_END, False),
        "out",
        (PROMPT + "vim e", False),
        VIM_START,
        VIM_END,
        "out",
    ],
    # DECCKM toggles on boundary lines move the app-mode pairing
    # positions, so those lines stay exact
    "vim_decckm": [
        "\x1b[?1h\x1b=",
        PROMPT + "vim f",
        "\x1b[22;0;0t\x1b[?1h\x1b[1;40r\x1b[22;2t\x1b[22;1t",
        "\x1b[5;1H\x1b[Knoise",
        # CSI ?1l's final byte at 11, so the ESC > at 13 below leaves
        # app mode, and a prompt follows it
        "\x1b[40;1H\x1b[?1l\x1b[23;0;0t",
        "abcdefghijkl\x1b>alice@devbox:~/src$ ls",
        "out",
        PROMPT + "vim f",
        "\x1b[?1h\x1b=\x1b[22;0;0t\x1b[22;2t\x1b[22;1t",
        VIM_END,
        "out",
    ],
    # one typed tail that backs up into the prompt, after prompts of
    # printable length 18, 3 and 0 (MINGW): three different results
    "tail_past_prompt": [
        PROMPT + "ab" + "\x08" * 8,
        "out",
        "\x1b]0;a: ~\x07a:~$ ab" + "\x08" * 8,
        "out",
        MINGW_TITLE,
        MINGW_HEADER,
        "$ ab" + "\x08" * 8,
        "out",
        PROMPT + "ab" + "\x08" * 8,
        # the cursor ends 3 cells into both prompts: only the longer
        # one lets the line feed warn
        "\x1b]0;a: ~\x07a:~$ " + "\x08" * 5,
        "out",
        PROMPT + "\x08" * 5,
        "out",
    ],
    # a line without LF can leave the terminal line empty but dirty: a
    # cursor left of column 0, or warnings the next flush reports
    "dirty_term_line": [
        ("\x1b[D", False),
        "abc",
        ("\x1b[1K", False),
        "abc",
        ("\x1b[2D", False),
        PROMPT + "ls",
        "out",
        ("\x1b[1K", False),
        TITLE,
        "out",
    ],
}


def _table(cases: dict) -> pa.Table:
    conv, tix, texts, eols = [], [], [], []
    for name, lines in cases.items():
        for i, line in enumerate(lines):
            text, eol = line if isinstance(line, tuple) else (line, True)
            conv.append(name)
            tix.append(i)
            texts.append(text)
            eols.append(eol)
    return pa.table(
        {
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(tix, pa.int32()),
            "text": pa.array(texts, pa.string()),
            "has_eol": pa.array(eols, pa.bool_()),
        }
    )


def _assert_fast_equals_exact(tbl: pa.Table, suppress_map=None):
    fast = scan_bucket_table(tbl, suppress_map=suppress_map, use_fast_paths=True)
    exact = scan_bucket_table(tbl, suppress_map=suppress_map, use_fast_paths=False)
    assert fast.schema == exact.schema == SCAN_SCHEMA
    keys = list(zip(exact.column("conv_id").to_pylist(), exact.column("turn_idx").to_pylist()))
    for name in SCAN_SCHEMA.names:
        a = fast.column(name).to_pylist()
        b = exact.column(name).to_pylist()
        bad = [(keys[i], x, y) for i, (x, y) in enumerate(zip(a, b)) if x != y]
        assert not bad, f"{name}: (row, fast, exact) {bad[:3]}"
    assert fast.equals(exact)


@pytest.mark.parametrize("seed", [99, 201, 7, 3])
def test_fast_paths_match_exact_on_synth(seed):
    tbl = gen_table(30, seed=seed, mean_turns=60).select(
        ["conv_id", "turn_idx", "text", "ts"]
    )
    _assert_fast_equals_exact(tbl)


def test_fast_paths_match_exact_on_prompt_variants():
    _assert_fast_equals_exact(_table(CASES))


def test_fast_paths_match_exact_with_suppressed_rows():
    suppress = {
        "plain_prompts": (1,),
        "prompt_after_prompt": (2, 3),
        "mingw": (2,),
        "title_only_with_header": (1,),
        "prompt_after_vim_end": (1, 2),
        "vim_one_line": (1,),
        "vim_end_then_more": (1, 3),
    }
    _assert_fast_equals_exact(_table(CASES), suppress_map=suppress)
    synth = gen_table(10, seed=5, mean_turns=40).select(["conv_id", "turn_idx", "text"])
    _assert_fast_equals_exact(synth, suppress_map={"conv000002": (1, 3), "conv000007": (2,)})


def test_fast_paths_match_exact_on_shuffled_variants():
    """Random conversations stitched from the variant lines, so every
    line shape meets every scanner state the others leave behind."""
    rng = random.Random(20261017)
    pool = [
        line if isinstance(line, str) else line[0]
        for lines in CASES.values()
        for line in lines
    ]
    cases = {
        f"mix{k:03d}": [rng.choice(pool) for _ in range(rng.randint(1, 14))]
        for k in range(200)
    }
    _assert_fast_equals_exact(_table(cases))


def _slow_calls(monkeypatch, tbl) -> int:
    calls = [0]
    scan_turn = SessionScanner.scan_turn

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return scan_turn(self, *args, **kwargs)

    monkeypatch.setattr(SessionScanner, "scan_turn", counted)
    scan_bucket_table(tbl, use_fast_paths=True)
    monkeypatch.undo()
    return calls[0]


def test_prompt_fast_paths_fire(monkeypatch):
    tbl = gen_table(30, seed=99, mean_turns=60).select(["conv_id", "turn_idx", "text"])
    assert _slow_calls(monkeypatch, tbl) == 0
    # one-line OSC-title prompts, their output, the MINGW title and
    # header lines, and vim start and end lines never reach the exact
    # walk
    vim = [VIM_START, "\x1b[5;1H\x1b[Knoise", VIM_END]
    clean = _table(
        {
            "linux": CASES["plain_prompts"] + CASES["prompt_after_prompt"],
            "mingw": [MINGW_TITLE, MINGW_HEADER],
            "vim": [PROMPT + "vim a"] + vim + ["out"] + vim + [PROMPT + "ls"],
        }
    )
    assert _slow_calls(monkeypatch, clean) == 0


# -- the typed-tail kernel -------------------------------------------------

_PARAM = st.one_of(st.just(""), st.just("0"), st.integers(1, 99).map(str))
_TAIL_PIECE = st.one_of(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=5),
    st.just("\x08"),
    st.builds("\x1b[{}{}".format, _PARAM, st.sampled_from("CDKP@X")),
)
# mostly "$ "-led, as an OSC prompt's trigger needs
_TAIL = st.tuples(
    st.sampled_from([" ", " ", ""]), st.lists(_TAIL_PIECE, max_size=8)
).map(lambda t: t[0] + "".join(t[1]))


def _osc_prompt(header_len: int) -> str:
    """An OSC one-line prompt up to its '$' whose header prints
    ``header_len`` cells; from 3 cells on, the title vouches for it."""
    if header_len < 3:
        return "\x1b]0;t\x07" + "h" * header_len
    d = "~/" + "d" * (header_len - 3)
    return f"\x1b]0;a@b: {d}\x07\x1b[01;32ma:\x1b[01;34m{d}\x1b[00m"


def _mingw_prompt(header_len: int) -> list:
    """A MINGW prompt's title and header lines, and the '$' line's text
    before its '$' (``header_len`` cells)."""
    return [
        "\x1b]0;bob@b7: ~/logs\x07",
        "\x1b[32mbob@b7 \x1b[35mMINGW64 \x1b[33m~/logs\x1b[0m",
        "h" * header_len,
    ]


@st.composite
def _typed_conversation(draw, unique_tails=False):
    """Prompt rows over a few headers and tails, so that rows repeat and
    the cache hits (``unique_tails``: every tail differs)."""
    n = draw(st.integers(1, 12))
    if unique_tails:
        tails = draw(st.lists(_TAIL, min_size=n, max_size=n, unique=True))
    else:
        pool = draw(st.lists(_TAIL, min_size=1, max_size=3))
        tails = [draw(st.sampled_from(pool)) for _ in range(n)]
    lens = draw(st.lists(st.integers(0, 40), min_size=1, max_size=3))
    lines = []
    for tail in tails:
        header_len = draw(st.sampled_from(lens))
        if draw(st.booleans()):
            lines.append(_osc_prompt(header_len) + "$" + tail)
        else:
            title, header, before = _mingw_prompt(header_len)
            lines += [title, header, before + "$" + tail]
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["out", "", "\x1b[33mx\x1b[0m"])))
    return lines


@settings(max_examples=150, deadline=None)
@given(st.lists(_typed_conversation(), min_size=1, max_size=4))
def test_typed_tail_kernel_matches_exact(convs):
    _assert_fast_equals_exact(_table({f"c{k}": lines for k, lines in enumerate(convs)}))


@settings(max_examples=60, deadline=None)
@given(_typed_conversation(unique_tails=True))
def test_typed_tail_kernel_matches_exact_when_every_tail_differs(lines):
    _assert_fast_equals_exact(_table({"c": lines}))


_CUB = re.compile("\x1b\\[([0-9]*)D")


def _kernel_keys(texts) -> set:
    """The cache keys of a table's typed rows, by the documented rule:
    ``(tail, min(prefix_len, L + 1))``, L = BS count plus CUB counts."""
    keys = set()
    for text in texts:
        if text.startswith("\x1b]0;") and "$" in text[text.find("\x07") :]:
            end = text.find("$", text.find("\x07"))
            header = re.sub("\x1b\\[[0-9;]*m", "", text[text.find("\x07") + 1 : end])
            prefix_len, tail = len(header), text[end + 1 :]
        elif text.startswith("$"):
            prefix_len, tail = 0, text[1:]
        else:
            continue
        left = tail.count("\x08") + sum(int(n or 1) for n in _CUB.findall(tail))
        keys.add((tail, min(prefix_len, left + 1)))
    return keys


def _typed_walks(monkeypatch, tbl) -> int:
    """Exact walks made outside ``scan_turn``: the typed-tail kernel's
    cache misses."""
    walks, depth = [0], [0]
    walk, scan_turn = SessionScanner._walk, SessionScanner.scan_turn

    def counted_walk(self, *args):
        walks[0] += depth[0] == 0
        return walk(self, *args)

    def nested_scan_turn(self, *args):
        depth[0] += 1
        try:
            return scan_turn(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(SessionScanner, "_walk", counted_walk)
    monkeypatch.setattr(SessionScanner, "scan_turn", nested_scan_turn)
    scan_bucket_table(tbl, use_fast_paths=True)
    monkeypatch.undo()
    return walks[0]


def test_typed_tail_cache_is_per_call(monkeypatch):
    a = gen_table(30, seed=99, mean_turns=60).select(["conv_id", "turn_idx", "text"])
    b = gen_table(30, seed=7, mean_turns=60, start=30).select(
        ["conv_id", "turn_idx", "text"]
    )
    keys = _kernel_keys(a.column("text").to_pylist())
    walks = _typed_walks(monkeypatch, a)
    assert 0 < walks <= len(keys)
    # the typed rows repeat, so most of them are cache hits
    typed = sum(
        1 for t in a.column("text").to_pylist() if t.startswith(("$", "\x1b]0;")) and "$" in t
    )
    assert typed > 4 * len(keys)
    # every call starts cold: a second scan of the same table misses as often
    assert _typed_walks(monkeypatch, a) == walks
    # and no state leaks between calls: A then B equals B then A
    ab = (scan_bucket_table(a), scan_bucket_table(b))
    ba = (scan_bucket_table(b), scan_bucket_table(a))
    assert ab[0].equals(ba[1]) and ab[1].equals(ba[0])


# -- vim session boundaries ------------------------------------------------

_VIM_EXTRA = st.one_of(
    st.sampled_from(
        ["\x1b[?1049h", "\x1b[?1049l", "\x1b[?12h", "\x1b[?12l", "\x1b[H", "\x1b[2J"]
    ),
    st.builds("\x1b[{}m".format, st.sampled_from(["", "0", "27", "23", "29", "1;31"])),
)
_VIM_EXTRAS = st.lists(_VIM_EXTRA, max_size=3).map("".join)
_HEIGHT = st.integers(1, 99)


@st.composite
def _vim_start(draw):
    """A vim start line: CSI 22;0;0t, an optional scroll region of
    height 1-99, CSI 22;2t CSI 22;1t, and other CSIs around them; now
    and then a CSI 23;0;0t after them, a one-line session that the
    exact walk takes."""
    region = draw(
        st.one_of(
            st.just(""),
            st.builds("\x1b[{};{}r".format, st.integers(0, 9), _HEIGHT),
        )
    )
    return (
        draw(_VIM_EXTRAS)
        + "\x1b[22;0;0t"
        + draw(_VIM_EXTRAS)
        + region
        + draw(_VIM_EXTRAS)
        + "\x1b[22;2t\x1b[22;1t"
        + draw(_VIM_EXTRAS)
        + draw(st.sampled_from(["", "", "", "", "\x1b[5;1H\x1b[23;0;0t"]))
    )


@st.composite
def _vim_end(draw):
    """A vim end line, CSI 23;0;0t last; now and then text, a prompt or
    a CSI after it, which the exact walk takes."""
    after = draw(
        st.sampled_from(
            [
                "",
                "",
                "",
                "",
                "x",
                "\x1b[1m",
                "\x1b[2C",
                "\x1b[2@\x1b[23;0;0t",
                "\r\x1b[Kalice@devbox:~/src$ ls",
            ]
        )
    )
    return (
        draw(_VIM_EXTRAS)
        + "\x1b[{};1H".format(draw(_HEIGHT))
        + draw(_VIM_EXTRAS)
        + "\x1b[23;0;0t"
        + after
    )


# what precedes a vim start line: a typed command row (OSC or MINGW
# prompt), a plain row, a title-only line, a MINGW header
_VIM_ENTRY = st.sampled_from(
    [
        [PROMPT + "vim notes.txt"],
        [MINGW_TITLE, MINGW_HEADER, "$ vim notes.txt"],
        ["out"],
        [TITLE],
        [MINGW_TITLE, MINGW_HEADER],
    ]
)


@st.composite
def _vim_conversation(draw):
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        lines += draw(_VIM_ENTRY)
        lines.append(draw(_vim_start()))
        for _ in range(draw(st.integers(0, 2))):
            lines.append("\x1b[{};1H\x1b[Kword".format(draw(_HEIGHT)))
        lines.append(draw(_vim_end()))
        if draw(st.booleans()):
            lines.append("out")
    return lines


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_vim_conversation(), min_size=1, max_size=3),
    st.lists(st.frozensets(st.integers(1, 6), max_size=2), min_size=3, max_size=3),
)
def test_vim_boundaries_match_exact(convs, suppress):
    """Random vim start and end lines after each entry state, with some
    command rows suppressed: fast equals exact on every column."""
    names = [f"v{k}" for k in range(len(convs))]
    _assert_fast_equals_exact(
        _table(dict(zip(names, convs))),
        suppress_map={n: tuple(s) for n, s in zip(names, suppress)},
    )
