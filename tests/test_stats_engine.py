"""Differential tests: the tokenizer-level stats engine
(stages/stats.py) must be bit-identical to the SessionScanner-based
counting (which is itself conformance-pinned against the reference's
statistics dicts)."""

import glob
import os
import random

import pyarrow as pa

from console_log_parser_ray.sources.convert import logs_to_table
from console_log_parser_ray.sources.synth import gen_table
from console_log_parser_ray.stages.scan import _legacy_bucket_stats_fn
from console_log_parser_ray.stages.stats import stats_table
from tests.conftest import RESOURCES
from tests.test_scanner_fuzz import _ATOMS


def _as_dict(tbl):
    return {
        (k, s): n
        for k, s, n in zip(
            tbl.column("kind").to_pylist(),
            tbl.column("seq").to_pylist(),
            tbl.column("n").to_pylist(),
        )
    }


def _diff(tbl_a, tbl_b):
    a, b = _as_dict(tbl_a), _as_dict(tbl_b)
    return {k: (a.get(k), b.get(k)) for k in set(a) | set(b) if a.get(k) != b.get(k)}


def test_stats_engine_matches_legacy_on_reference_corpus():
    paths = sorted(glob.glob(os.path.join(RESOURCES, "*.log")))
    tbl = logs_to_table(paths)
    assert _diff(stats_table(tbl), _legacy_bucket_stats_fn()(tbl)) == {}


def test_stats_engine_matches_legacy_on_synth():
    tbl = gen_table(40, seed=17, mean_turns=50).select(
        ["conv_id", "turn_idx", "text"]
    )
    assert _diff(stats_table(tbl), _legacy_bucket_stats_fn()(tbl)) == {}


def test_stats_engine_matches_legacy_on_hostile_fuzz():
    rng = random.Random(20260817)
    extra = [
        "\x1b[3\x081m",          # C0 inside CSI body
        "\x1bP0;1|payload",      # unterminated DCS (dirty carry)
        "continues\x1b\\done",   # ST finishing the carried DCS
        "\x1b]0;no terminator",  # unterminated OSC
        "tail\x07after",
        "\x1b",                  # bare ESC at EOL
        "[1mafter",              # CSI body continuing next line
        "\x1bP:bad\x1b\\",       # DCS ignore-hook quirk
        "\x1b[1:2m",             # CSI ignore via colon
        "mixed\x7fdel",
        "\x1b]10;c0\x01body\x07",  # C0 inside OSC body
    ]
    atoms = _ATOMS + extra
    conv_rows = {"conv_id": [], "turn_idx": [], "text": []}
    for trial in range(150):
        n_lines = rng.randint(1, 10)
        for i in range(n_lines):
            conv_rows["conv_id"].append(f"t{trial:03d}")
            conv_rows["turn_idx"].append(i)
            conv_rows["text"].append(
                "".join(
                    atoms[rng.randrange(len(atoms))]
                    for _ in range(rng.randint(1, 4))
                )
            )
    tbl = pa.table(
        {
            "conv_id": pa.array(conv_rows["conv_id"], pa.string()),
            "turn_idx": pa.array(conv_rows["turn_idx"], pa.int32()),
            "text": pa.array(conv_rows["text"], pa.string()),
        }
    )
    assert _diff(stats_table(tbl), _legacy_bucket_stats_fn()(tbl)) == {}


def _events_exact(tbl):
    """Pure-tokenizer per-turn events (no tiers): the gating oracle."""
    from console_log_parser_ray.vt.tokenizer import LineTokenizer

    tbl = tbl.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    convs = tbl.column("conv_id").to_pylist()
    tixs = tbl.column("turn_idx").to_pylist()
    texts = tbl.column("text").to_pylist()
    eols = (
        tbl.column("has_eol").to_pylist()
        if "has_eol" in tbl.schema.names
        else [True] * len(convs)
    )
    out = {}
    tok = None
    last = None
    for cid, tix, text, eol in zip(convs, tixs, texts, eols):
        if cid != last:
            tok = LineTokenizer()
            last = cid
        raw = text.encode("utf-8", "surrogatepass") + (b"\n" if eol else b"")
        per = {}
        for ev in tok.feed_line(raw):
            k = ev[0]
            if k == "exec":
                key = ("control_function", "0x{:02x}".format(ev[1]))
            elif k == "csi":
                key = ("csi", "Esc[" + ev[1] + ev[2] + ev[3] + ev[4])
            elif k == "esc":
                key = ("escape", "Esc" + ev[1] + ev[2])
            elif k == "osc":
                key = ("osc_string", ev[1])
            elif k == "dcs_hook":
                key = ("dcs_function", "EscP" + ev[1])
            elif k == "dcs_end":
                key = ("dcs_string", ev[1])
            else:
                continue
            per[key] = per.get(key, 0) + 1
        for key, n in per.items():
            out[(cid, tix) + key] = n
    return out


def _events_as_dict(tbl):
    return {
        (c, t, k, s): n
        for c, t, k, s, n in zip(
            tbl.column("conv_id").to_pylist(),
            tbl.column("turn_idx").to_pylist(),
            tbl.column("kind").to_pylist(),
            tbl.column("seq").to_pylist(),
            tbl.column("n").to_pylist(),
        )
    }


def test_events_table_matches_pure_tokenizer():
    from console_log_parser_ray.stages.stats import events_table

    paths = sorted(glob.glob(os.path.join(RESOURCES, "*.log")))
    tbl = logs_to_table(paths)
    assert _events_as_dict(events_table(tbl)) == _events_exact(tbl)

    synth = gen_table(30, seed=23, mean_turns=50).select(
        ["conv_id", "turn_idx", "text"]
    )
    assert _events_as_dict(events_table(synth)) == _events_exact(synth)


def test_events_table_hostile_fuzz():
    import pyarrow as pa

    from console_log_parser_ray.stages.stats import events_table

    rng = random.Random(77)
    atoms = _ATOMS + [
        "\x1b[3\x081m", "\x1bP0;1|payload", "continues\x1b\\done",
        "\x1b]0;no terminator", "tail\x07after", "\x1b", "[1mafter",
        "\x1bP:bad\x1b\\", "\x1b[1:2m", "bell\x07\x07twice",
    ]
    rows = {"conv_id": [], "turn_idx": [], "text": []}
    for trial in range(120):
        for i in range(rng.randint(1, 8)):
            rows["conv_id"].append(f"t{trial:03d}")
            rows["turn_idx"].append(i)
            rows["text"].append(
                "".join(
                    atoms[rng.randrange(len(atoms))]
                    for _ in range(rng.randint(1, 4))
                )
            )
    tbl = pa.table(
        {
            "conv_id": pa.array(rows["conv_id"], pa.string()),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "text": pa.array(rows["text"], pa.string()),
        }
    )
    assert _events_as_dict(events_table(tbl)) == _events_exact(tbl)
