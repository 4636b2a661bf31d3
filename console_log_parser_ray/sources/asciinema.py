"""Asciinema v2 recording source: frames -> transcript turns.

Input table: one row per frame, ``(conv_id, frame_idx, ts:double,
data:string)`` plus a per-conversation header row carried separately or
as columns (width/height/start).  The reference reads a JSON header
line then one ``[ts, "o", data]`` frame per line
(reference asciinema2html.py:348-373), buffers frame payloads until a
newline completes a terminal line, and feeds that line to the parser
(reference asciinema2html.py:281-308).

Here the frame->line assembly is a per-conversation grouped scan: sort
frames by ``ts``, concatenate payloads, split on newline; each line
becomes a turn whose ``ts`` is the timestamp of the frame that
completed it (the reference's ``document.frame_ts`` at parse time).

Vim-session recording extraction (reference asciinema2html.py:201-258)
keeps the raw frames of each vim span with re-based, gap-quantized
timestamps -- the engine's equivalent of the per-session ``.rec`` dumps
(reference asciinema2html.py:192-197).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

FRAME_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("frame_idx", pa.int32()),
        ("ts", pa.float64()),
        ("data", pa.string()),
    ]
)

# Gap quantization steps (reference asciinema2html.py:226-230)
_QSTEPS = np.array([4.0, 2.0, 1.0, 0.5, 0.3, 0.18, 0.1, 0.03])


def quantize_gap(gap: float) -> float:
    """Quantize a frame gap to the largest step <= gap (vectorizable)."""
    for q in _QSTEPS:
        if gap >= q:
            return float(q)
    return gap


def quantize_gaps(gaps: np.ndarray) -> np.ndarray:
    """Vectorized gap quantization over a frame-gap array."""
    out = gaps.copy()
    # assign the largest step <= gap; below the smallest step keep gap
    steps = _QSTEPS[::-1]  # ascending
    idx = np.searchsorted(steps, gaps, side="right") - 1
    mask = idx >= 0
    out[mask] = steps[idx[mask]]
    return out


def parse_header(line: str) -> dict:
    """Validate an asciinema v2 header (reference asciinema2html.py:352-355)."""
    info = json.loads(line)
    if info.get("version") != 2:
        raise ValueError("not an asciinema v2 recording")
    return info


def frames_to_turns(frames_ds):
    """Assemble frames into newline-delimited turns per conversation.

    One shuffle keyed on a conv-hash BUCKET (task dispatch bounded by
    the bucket count, never the recording count); inside each bucket an
    ordered per-conversation scan buffers payload until LF, exactly
    like the reference's byteline assembly (reference
    asciinema2html.py:303-308).  Partitioning assumption: one
    recording's frames fit a worker; a giant recording should be
    pre-split and routed through the runner's heavy-conversation chunk
    path after assembly.
    """
    from .cache import map_keyed, per_key

    def assemble(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by([("ts", "ascending"), ("frame_idx", "ascending")])
        conv = tbl.column("conv_id")[0].as_py()
        datas = tbl.column("data").to_pylist()
        tss = tbl.column("ts").to_pylist()
        texts, turn_ts = [], []
        buf = []
        for data, ts in zip(datas, tss):
            start = 0
            while True:
                nl = data.find("\n", start)
                if nl < 0:
                    if start < len(data):
                        buf.append(data[start:])
                    break
                buf.append(data[start:nl])
                texts.append("".join(buf))
                turn_ts.append(ts)
                buf = []
                start = nl + 1
        trailing = "".join(buf) if buf else None
        if trailing:
            texts.append(trailing)
            turn_ts.append(tss[-1] if tss else 0.0)
        n = len(texts)
        has_eol = [True] * n
        if trailing:
            has_eol[-1] = False
        return pa.table(
            {
                "conv_id": pa.array([conv] * n, pa.string()),
                "turn_idx": pa.array(range(n), pa.int32()),
                "text": pa.array(texts, pa.string()),
                "ts": pa.array(
                    [int(t * 1_000_000) for t in turn_ts], pa.timestamp("us")
                ),
                "has_eol": pa.array(has_eol, pa.bool_()),
            }
        )

    return map_keyed(frames_ds, per_key(assemble))


def extract_vim_recordings(frames_ds, parsed_ds, n_buckets: int = 64):
    """Cut per-vim-session frame recordings with quantized timestamps.

    Joins the parsed turns' vim spans back to the frame stream: a frame
    belongs to session S if its completing turn is inside S's span.
    Returns (conv_id, vim_session_id, rec_idx, rel_ts, data) rows where
    rel_ts follows the reference's re-based quantized clock
    (reference asciinema2html.py:232-243).

    Scale shape: the span side is one small-row groupby aggregate (the
    partials pre-combine per block), then spans and frames co-locate
    via a tagged union on a conv-hash bucket -- one bounded shuffle, no
    driver-side span map, no broadcast, group dispatch capped at
    n_buckets.
    """
    import pyarrow.compute as pc

    from ray.data.aggregate import Max, Min

    from .cache import map_keyed

    def vim_rows(tbl: pa.Table) -> pa.Table:
        sub = tbl.filter(pc.greater_equal(tbl.column("vim_session_id"), 0))
        return pa.table(
            {
                "conv_id": sub.column("conv_id"),
                "vim_session_id": sub.column("vim_session_id"),
                "ts_us": pc.cast(sub.column("ts"), pa.int64()),
            }
        )

    span_ds = (
        parsed_ds.map_batches(vim_rows, batch_format="pyarrow")
        .groupby(["conv_id", "vim_session_id"])
        .aggregate(Min("ts_us"), Max("ts_us"))
    )

    def tag_spans(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        return pa.table(
            {
                "conv_id": tbl.column("conv_id"),
                "side": pa.array(["s"] * n, pa.string()),
                "vim_session_id": tbl.column("vim_session_id"),
                "start_us": tbl.column("min(ts_us)"),
                "end_us": tbl.column("max(ts_us)"),
                "frame_idx": pa.nulls(n, pa.int32()),
                "ts": pa.nulls(n, pa.float64()),
                "data": pa.nulls(n, pa.string()),
            }
        )

    def tag_frames(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        return pa.table(
            {
                "conv_id": tbl.column("conv_id"),
                "side": pa.array(["f"] * n, pa.string()),
                "vim_session_id": pa.nulls(n, pa.int32()),
                "start_us": pa.nulls(n, pa.int64()),
                "end_us": pa.nulls(n, pa.int64()),
                "frame_idx": tbl.column("frame_idx"),
                "ts": tbl.column("ts"),
                "data": tbl.column("data"),
            }
        )

    tagged = span_ds.map_batches(tag_spans, batch_format="pyarrow").union(
        frames_ds.map_batches(tag_frames, batch_format="pyarrow")
    )

    def cut_group(tbl: pa.Table) -> pa.Table:
        is_span = pc.equal(tbl.column("side"), "s")
        span_t = tbl.filter(is_span)
        frame_t = tbl.filter(pc.invert(is_span)).sort_by(
            [
                ("conv_id", "ascending"),
                ("ts", "ascending"),
                ("frame_idx", "ascending"),
            ]
        )
        by_conv: dict = {}
        for c, sid, s_us, e_us in zip(
            span_t.column("conv_id").to_pylist(),
            span_t.column("vim_session_id").to_pylist(),
            span_t.column("start_us").to_pylist(),
            span_t.column("end_us").to_pylist(),
        ):
            by_conv.setdefault(c, []).append((sid, s_us, e_us))
        out = {
            "conv_id": [],
            "vim_session_id": [],
            "rec_idx": [],
            "rel_ts": [],
            "data": [],
        }
        convs = frame_t.column("conv_id").to_pylist()
        tss = frame_t.column("ts").to_pylist()
        datas = frame_t.column("data").to_pylist()
        i, n = 0, len(convs)
        while i < n:
            j = i
            while j < n and convs[j] == convs[i]:
                j += 1
            for sid, start_us, end_us in sorted(by_conv.get(convs[i], [])):
                lo, hi = start_us / 1e6, end_us / 1e6
                frames = [
                    (t, d)
                    for t, d in zip(tss[i:j], datas[i:j])
                    if lo <= t <= hi
                ]
                last = lo
                rel = 0.0
                for k, (t, d) in enumerate(frames):
                    rel = round(rel + quantize_gap(t - last), 5)
                    last = t
                    out["conv_id"].append(convs[i])
                    out["vim_session_id"].append(sid)
                    out["rec_idx"].append(k)
                    out["rel_ts"].append(rel)
                    out["data"].append(d)
            i = j
        return pa.table(
            {
                "conv_id": pa.array(out["conv_id"], pa.string()),
                "vim_session_id": pa.array(out["vim_session_id"], pa.int32()),
                "rec_idx": pa.array(out["rec_idx"], pa.int32()),
                "rel_ts": pa.array(out["rel_ts"], pa.float64()),
                "data": pa.array(out["data"], pa.string()),
            }
        )

    return map_keyed(tagged, cut_group, n_buckets=n_buckets)
