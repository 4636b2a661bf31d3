"""Per-layer tracing from the benchmark side.

Spans are taken only around calls into the program's public entry
points, kept in memory as per-name aggregates (calls, inclusive time,
self time), and reported when the run ends:

* an in-process replay of the scan and enrich work of a call, with
  ``SessionScanner.scan_turn`` and ``LineTokenizer.feed_line`` wrapped;
* spans in the calling process around ``state.manifests`` and each
  Ray Data execution during a real ``run_flagship`` call;
* Ray task spans read from ``ray.timeline()``.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive_s, self_s]
        self.windows = {}  # name -> [(t0, t1)] wall-clock windows
        self._stack = []

    def wrap(self, name: str, fn, keep_windows: bool = False):
        def traced(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            w0 = time.time() if keep_windows else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                s = self.stats.setdefault(name, [0, 0.0, 0.0])
                s[0] += 1
                s[1] += dt
                s[2] += dt - child[0]
                if keep_windows:
                    self.windows.setdefault(name, []).append((w0, time.time()))

        return traced

    @contextlib.contextmanager
    def patched(self, owner, attrs, prefix: str, keep_windows: bool = False):
        """Wrap ``owner.<attr>`` for each attr for the duration of the block."""
        saved = {a: owner.__dict__[a] for a in attrs}
        try:
            for a, fn in saved.items():
                setattr(owner, a, self.wrap(f"{prefix}.{a}", fn, keep_windows))
            yield self
        finally:
            for a, fn in saved.items():
                setattr(owner, a, fn)

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def inclusive(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]


# ---------------------------------------------------------------------------
# in-process replay (no Ray): read -> scan -> enrich
# ---------------------------------------------------------------------------


def replay_partitions(in_dir: str, plan: str, buckets=None):
    """The per-partition input tables a call scans, read from its input
    files: one table per file for the sharded plan, one per conversation
    bucket for the bucketed plan (``buckets`` restricts to those)."""
    from console_log_parser_ray.state.manifests import conv_bucket

    cols = ["conv_id", "turn_idx", "text", "ts"]
    files = sorted(
        os.path.join(in_dir, f) for f in os.listdir(in_dir) if f.endswith(".parquet")
    )
    if plan == "sharded":
        for f in files:
            yield pq.read_table(f, columns=cols)
        return
    tbl = pa.concat_tables([pq.read_table(f, columns=cols) for f in files])
    dic = pc.dictionary_encode(tbl.column("conv_id").combine_chunks())
    n_buckets, wanted = buckets
    bucket_of = pa.array(
        [conv_bucket(c, n_buckets) for c in dic.dictionary.to_pylist()], pa.int32()
    ).take(dic.indices)
    for b in sorted(wanted):
        yield tbl.filter(pc.equal(bucket_of, b))


def replay(in_dir: str, plan: str, buckets=None, tracer: Tracer | None = None) -> int:
    """Scan and enrich every partition of a call in this process; returns
    rows scanned.  With a tracer, the vt and stages entry points are
    wrapped."""
    from console_log_parser_ray.stages.enrich import EnrichTurns
    from console_log_parser_ray.stages.scan import scan_bucket_table
    from console_log_parser_ray.vt.session import SessionScanner
    from console_log_parser_ray.vt.tokenizer import LineTokenizer

    scan, enrich = scan_bucket_table, EnrichTurns()
    rows = 0
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.patched(SessionScanner, ["scan_turn"], "vt"))
            stack.enter_context(tracer.patched(LineTokenizer, ["feed_line"], "vt"))
            scan = tracer.wrap("stages.scan", scan)
            enrich = tracer.wrap("stages.enrich", enrich)
        for tbl in replay_partitions(in_dir, plan, buckets):
            rows += tbl.num_rows
            enrich(scan(tbl))
    return rows


def replay_metrics(tracer: Tracer, rows: int) -> dict:
    scan_turns = tracer.calls("vt.scan_turn")
    return {
        "vt.scan_turn.calls": (scan_turns, "count"),
        "vt.scan_turn.s": (tracer.inclusive("vt.scan_turn"), "s"),
        "vt.feed_line.calls": (tracer.calls("vt.feed_line"), "count"),
        "vt.feed_line.s": (tracer.inclusive("vt.feed_line"), "s"),
        "stages.scan.s": (tracer.self_time("stages.scan"), "s"),
        "stages.scan.fast_ratio": (1.0 - scan_turns / rows if rows else 0.0, "ratio"),
        "stages.enrich.s": (tracer.inclusive("stages.enrich"), "s"),
        "stages.enrich.rows": (rows if tracer.calls("stages.enrich") else 0, "count"),
    }


# ---------------------------------------------------------------------------
# caller-side spans + Ray task timeline for one real call
# ---------------------------------------------------------------------------

MANIFEST_PREFIXES = ("completed_", "clean_", "write_")


@contextlib.contextmanager
def caller_spans(tracer: Tracer):
    """Wrap this process's calls into ``state.manifests`` and the Ray
    Data executions (``count`` / ``take_all``) that ``run_flagship``
    makes."""
    import ray.data

    from console_log_parser_ray.state import manifests

    names = [n for n in vars(manifests) if n.startswith(MANIFEST_PREFIXES)]
    with tracer.patched(manifests, names, "state.manifests"), tracer.patched(
        ray.data.Dataset, ["count", "take_all"], "ray.data", keep_windows=True
    ):
        yield tracer


def map_task_spans(t0: float, t1: float, expect_at_least: int, wait_s: float = 10.0):
    """(start, end) in epoch seconds of the Ray Data map tasks that ran
    inside [t0, t1].  Task events reach the GCS about once a second, so
    poll until the expected tasks are visible and the count is stable."""
    import ray

    deadline = time.monotonic() + wait_s
    last = None
    while True:
        time.sleep(1.0)
        spans = sorted(
            (e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6)
            for e in ray.timeline()
            if e.get("ph") == "X"
            and str(e.get("cat", "")).startswith("task::MapBatches")
            and t0 <= e["ts"] / 1e6 <= t1
        )
        if (len(spans) >= expect_at_least and len(spans) == last) or (
            time.monotonic() > deadline
        ):
            return spans
        last = len(spans)


def _union(spans) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(spans):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + (cur_e - cur_s if cur_e is not None else 0.0)


def _phase(spans) -> float:
    return max(e for _, e in spans) - min(s for s, _ in spans) if spans else 0.0


def ray_metrics(t0: float, t1: float, spans, executions) -> dict:
    """Head/tail/gap split of one call's wall time, plus the scatter and
    gather phases when the call ran two Ray Data executions (bucketed)."""
    wall = t1 - t0
    durs = [e - s for s, e in spans]
    head = spans[0][0] - t0 if spans else wall
    tail = t1 - max(e for _, e in spans) if spans else 0.0
    scatter, gather = [], []
    if len(executions) >= 2:
        boundary = executions[1][0]
        scatter = [sp for sp in spans if sp[0] < boundary]
        gather = [sp for sp in spans if sp[0] >= boundary]
    return {
        "pipelines.run.head_s": (head, "s"),
        "pipelines.run.tail_s": (tail, "s"),
        "ray.tasks": (len(spans), "count"),
        "ray.task_s": (sum(durs), "s"),
        "ray.gap_s": (wall - head - tail - _union(spans), "s"),
        "ray.task_skew": (
            max(durs) / statistics.median(durs) if durs else 0.0,
            "ratio",
        ),
        "exchange.scatter_s": (_phase(scatter), "s"),
        "exchange.gather_s": (_phase(gather), "s"),
        "exchange.gather_tasks": (len(gather), "count"),
    }
