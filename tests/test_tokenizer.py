"""Differential tests: LineTokenizer vs the reference VT500Parser."""

import random

import pytest

from console_log_parser_ray.vt import tokenizer as T
from console_log_parser_ray.vt.tokenizer import LineTokenizer


def _ref_events(data_lines):
    from vtparser import VT500Parser

    evs = []

    class TOH:
        def print(self, code):
            evs.append(("print", chr(code)))

        def execute(self, code):
            evs.append(("exec", code))

    class CSH:
        def esc_dispatch(self, i, f):
            evs.append(("esc", i, f))

        def csi_dispatch(self, p, params, i, f):
            evs.append(("csi", p, params, i, f))

    class DCS:
        def hook(self, p, params, i, f):
            evs.append(("dcs_hook", p + params + i + f))
            return self

        def put(self, code):
            evs.append(("dcs_put", code))

        def end_of_data(self, code=None):
            evs.append(("dcs_end_marker",))

    class OSC:
        def start(self, code=None):
            pass

        def put(self, code):
            evs.append(("osc_put", code))

        def end_of_data(self, code=None):
            evs.append(("osc_end",))

    p = VT500Parser()
    p.terminal_output_handler = TOH()
    p.control_sequence_handler = CSH()
    p.dc_control_handler = DCS()
    p.osc_handler = OSC()
    for line in data_lines:
        for c in line:
            p.input(c)
    return evs


def _squash_ref(evs):
    out, osc, dcs = [], [], []
    for e in evs:
        if e[0] == "print":
            if out and out[-1][0] == "print":
                out[-1] = ("print", out[-1][1] + e[1])
            else:
                out.append(("print", e[1]))
        elif e[0] == "osc_put":
            osc.append(e[1])
        elif e[0] == "osc_end":
            out.append(("osc", "".join(chr(c) for c in osc)))
            osc = []
        elif e[0] == "dcs_hook":
            out.append(("dcs_hook", e[1]))
            dcs = []
        elif e[0] == "dcs_put":
            dcs.append(e[1])
        elif e[0] == "dcs_end_marker":
            out.append(("dcs_end", "".join(chr(c) for c in dcs)))
            dcs = []
        else:
            out.append(e)
    return out


def _squash_mine(evs):
    out = []
    for e in evs:
        if e[0] == "print":
            if out and out[-1][0] == "print":
                out[-1] = ("print", out[-1][1] + e[1])
            else:
                out.append(("print", e[1]))
        elif e[0] == "exec":
            out.append(("exec", e[1]))
        elif e[0] == "esc":
            out.append(("esc", e[1], e[2]))
        elif e[0] == "csi":
            out.append(("csi", e[1], e[2], e[3], e[4]))
        elif e[0] == "dcs_hook":
            out.append(("dcs_hook", e[1]))
        elif e[0] == "dcs_end":
            out.append(("dcs_end", e[1]))
        elif e[0] == "osc":
            out.append(("osc", e[1]))
    return out


def _mine_events(lines):
    tok = LineTokenizer()
    out = []
    for line in lines:
        out.extend(tok.feed_line(line))
    return out


@pytest.mark.parametrize(
    "stem",
    [
        "session_linux_1",
        "session_win_2",
        "testtermlog_2",
        "testtermlog_3",
        "testtermlog_4",
    ],
)
def test_corpus_events_match_reference(stem, corpus_lines):
    lines = corpus_lines[stem]
    assert _squash_ref(_ref_events(lines)) == _squash_mine(_mine_events(lines))


_PIECES = [
    b"hello world ",
    b"\x1b[",
    b"\x1b]",
    b"\x1bP",
    b"\x1b",
    b"m",
    b"H",
    b"0;",
    b";",
    b"1;31",
    b"\x07",
    b"\x1b\\",
    b"\r",
    b"\n",
    b"\x08",
    b"\t",
    b"?25h",
    b"$ ",
    "日本語".encode(),
    b"\x18",
    b"\x1a",
    b'"f.txt"',
    b"22;0;0t",
    b"\x1b[38;5;196m",
    b"\x1b[0m",
    b":",
    b"<",
    b"\x7f",
    b"\x9b31m",
    b"\x90qq\x9c",
    b"\x1bX junk \x1b\\",
    b"\x1b%G",
    b"A" * 40,
    b"\x1b[K",
    b"\x1b[1 q",
    b"\x1bP1$r0m\x1b\\",
    b"\x1b]10;?\x07",
]


def test_fuzz_events_match_reference():
    rng = random.Random(20260817)
    for _ in range(200):
        lines = [
            b"".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 15)))
            + (b"\n" if rng.random() < 0.8 else b"")
            for _ in range(rng.randint(1, 5))
        ]
        assert _squash_ref(_ref_events(lines)) == _squash_mine(
            _mine_events(lines)
        ), lines


# Complete sequences: each takes the tokenizer from GROUND back to GROUND
# (DCS-ignore atoms are left out: their hook event carries no position)
_GROUND_ATOMS = [
    b"hello ",
    b"$ ",
    "日本語".encode(),
    b"\r",
    b"\x08",
    b"\t",
    b"\x7f",
    b"\x1b[K",
    b"\x1b[01;32m",
    b"\x1b[?1h",
    b"\x1b=",
    b"\x1b>",
    b"\x1b[23;0;0t",
    b"\x1b[1:2m",
    b"\x1b[1 q",
    b"\x1b%G",
    b"\x1b]0;user@host: ~/dir\x07",
    b"\x1b]10;?\x1b\\",
    b"\x1bP1$r0m\x1b\\",
    b"\x1bX junk \x1b\\",
    b"\x9b31m",
    b"\x1b[3\x181m",
]
_TAILS = [b"", b"\n", b"\x1b]0;unterminated", b"\x1bP0;1|payload", b"\x1b[", b"\x1b"]


def _anchor(ev):
    return ev[-1] if ev[0] in ("csi", "esc") else ev[2]


def _tok_state(tok):
    # the collected private/params/intermediates only matter while a
    # sequence is being collected (entering ESCAPE clears them)
    collecting = tok.state in (
        T.ESCAPE,
        T.ESCAPE_INTERMEDIATE,
        T.CSI_ENTRY,
        T.CSI_PARAM,
        T.CSI_INTERMEDIATE,
        T.DCS_ENTRY,
        T.DCS_PARAM,
        T.DCS_INTERMEDIATE,
    )
    return (
        tok.state,
        (tok.private, tok.interm, tok.params) if collecting else None,
        tuple(tok.osc_buf),
        tok.dcs_key,
        tuple(tok.dcs_buf),
        tok.utf8_need,
    )


def test_feed_line_from_offset_matches_full_walk():
    """feed_line(line, k) from GROUND, for k at any sequence boundary,
    yields exactly the events of feed_line(line) at positions >= k (a
    print run spanning k is cut at k) and leaves the same carry."""
    rng = random.Random(20261017)
    for _ in range(400):
        atoms = [rng.choice(_GROUND_ATOMS) for _ in range(rng.randint(1, 10))]
        line = b"".join(atoms) + rng.choice(_TAILS)
        whole = LineTokenizer()
        full = whole.feed_line(line)
        k = 0
        for atom in [b""] + atoms:
            k += len(atom)
            want = []
            for ev in full:
                if ev[0] == "print" and ev[2] < k < ev[3]:
                    want.append(("print", line[k : ev[3]].decode("utf-8"), k, ev[3]))
                elif _anchor(ev) >= k:
                    want.append(ev)
            tok = LineTokenizer()
            assert tok.feed_line(line, k) == want, (line, k)
            assert _tok_state(tok) == _tok_state(whole), (line, k)
