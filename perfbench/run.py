#!/usr/bin/env python3
"""Flagship benchmark: seeded inputs -> ``pipelines.run.run_flagship`` ->
checked outputs -> one JSON line of metrics.

    python3 perfbench/run.py --workload sharded --seed 1 --seconds 10 --trace 0

Workloads (see README.md for why each exists):

* ``sharded``  -- conversation-complete files with the
  ``_CONV_PARTITIONED`` marker: fused per-shard tasks, no exchange.
* ``resume``   -- the same rows in ingest order, run once during set-up;
  every other bucket manifest is then removed and the timed call resumes
  through the 128-bucket storage scatter/gather.

Each run is closed-loop (one call at a time) on one local Ray with one
CPU.  Timed calls repeat until ``--seconds`` of call time
and at least three calls have accumulated; every call's outputs are
checked against the generator's ground truth outside the timed window.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (untraced calls, one traced call, and an in-process replay).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("sharded", "resume")
# Ray CPUs: the benchmark is defined on one core, so that a call's wall
# time is the sum of its layers (see README.md)
RAY_CPUS = 1
MIN_CALLS = 3
CALL_LIMIT_S = 60.0
# stop starting calls this long after process start (runs must end < 180 s)
RUN_BUDGET_S = 90.0


class Call:
    __slots__ = ("start", "wall", "t0", "t1", "result", "rss_mb", "out_bytes", "cleaned", "problems")


def tree_size(root: str, suffix: str = "") -> tuple:
    """(files, bytes) under ``root`` whose names end with ``suffix``."""
    n = size = 0
    for d, _dirs, files in os.walk(root):
        for f in files:
            if f.endswith(suffix):
                n += 1
                size += os.path.getsize(os.path.join(d, f))
    return n, size


def bucket_file_stats(out_dir: str, buckets) -> dict:
    """path -> (inode, mtime) of every sink file of the given buckets."""
    names = {f"bucket={b}" for b in buckets}
    snap = {}
    for sub in ("sinks", "parsed"):
        for d, _dirs, files in os.walk(os.path.join(out_dir, sub)):
            if os.path.basename(d) in names:
                for f in files:
                    st = os.stat(os.path.join(d, f))
                    snap[os.path.join(d, f)] = (st.st_ino, st.st_mtime_ns)
    return snap


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.out = os.path.join(workdir, "out")
        self.plan = "sharded" if workload == "sharded" else "bucketed"
        self.n_buckets = None
        self.calls = []

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Inputs, then the priming run (``resume``) or a tiny warm-up
        call (``sharded``)."""
        from perfbench import inputs
        from perfbench.harness import call_with_limit

        t = time.perf_counter()
        write = inputs.write_sharded if self.plan == "sharded" else inputs.write_bucketed
        self.in_dir = os.path.join(self.workdir, "input")
        tbl = inputs.generate(self.seed)
        write(tbl, self.in_dir)
        self.truth = inputs.truth_of(tbl)
        self.n_turns = tbl.num_rows

        from console_log_parser_ray.pipelines.run import run_flagship

        # the first call starts the Ray worker and Ray Data's actors,
        # which every later call in the process reuses: resume's priming
        # run does that, sharded makes a tiny warm-up call
        gen_s = time.perf_counter() - t
        t = time.perf_counter()
        if self.workload == "resume":
            res = call_with_limit(lambda: run_flagship(self.in_dir, self.out), CALL_LIMIT_S)
            self.n_buckets = res["buckets"]
            self.uncommit()
        else:
            warm_in = os.path.join(self.workdir, "warmup_input")
            inputs.write_sharded(inputs.generate(self.seed, n_convs=4, mean_turns=20), warm_in)
            warm_out = os.path.join(self.workdir, "warmup_out")
            call_with_limit(lambda: run_flagship(warm_in, warm_out), CALL_LIMIT_S)
            shutil.rmtree(warm_in)
            shutil.rmtree(warm_out)
        print(f"perfbench: set-up: input {gen_s:.3f} s, first call {time.perf_counter() - t:.3f} s", file=sys.stderr)

    def resumed_buckets(self):
        return range(1, self.n_buckets, 2)

    def uncommit(self):
        """Remove every other bucket manifest: those buckets' sink files
        become uncommitted output that resume must clean and redo."""
        from console_log_parser_ray.state.manifests import manifest_path

        for b in self.resumed_buckets():
            path = manifest_path(self.out, b)
            if os.path.exists(path):
                os.remove(path)

    # -- one timed call -----------------------------------------------------

    def call(self, spans=None) -> Call:
        from console_log_parser_ray.pipelines.run import run_flagship
        from perfbench.check import check_outputs, check_resume
        from perfbench.harness import CallTimeout, call_with_limit, peak_rss_mb, ray_workers, reset_peak_rss

        c = Call()
        before = {}
        if self.workload == "resume":
            self.uncommit()
            before = bucket_file_stats(self.out, self.resumed_buckets())
        else:
            shutil.rmtree(self.out, ignore_errors=True)
        # start every call with no dirty pages left from the last one
        os.sync()
        reset_peak_rss([os.getpid(), *ray_workers()])

        c.result, c.problems = None, []
        c.t0 = time.time()
        c.start = t = time.perf_counter()
        try:
            with spans or contextlib.nullcontext():
                c.result = call_with_limit(lambda: run_flagship(self.in_dir, self.out), CALL_LIMIT_S)
        except (CallTimeout, Exception) as e:  # recorded as a failed call
            traceback.print_exc(file=sys.stderr)
            c.problems = [f"{type(e).__name__}: {e}"]
        c.wall = time.perf_counter() - t
        c.t1 = time.time()
        c.rss_mb = peak_rss_mb([os.getpid(), *ray_workers()])

        after = bucket_file_stats(self.out, self.resumed_buckets()) if before else {}
        c.cleaned = sum(1 for p, st in before.items() if after.get(p) != st)
        c.out_bytes = tree_size(self.out)[1]
        if not c.problems:
            c.problems = check_outputs(self.out, self.truth)
            if self.workload == "resume":
                c.problems += check_resume(c.result, self.n_buckets)
        print(f"perfbench: call {len(self.calls)}: {c.wall:.3f} s", file=sys.stderr)
        for p in c.problems:
            print(f"perfbench: call {len(self.calls)} failed: {p}", file=sys.stderr)
        self.calls.append(c)
        return c

    def timed_calls(self, t_process_start: float) -> list:
        done, timed = 0.0, []
        while done < self.seconds or len(timed) < MIN_CALLS:
            if timed and time.perf_counter() - t_process_start > RUN_BUDGET_S:
                break
            c = self.call()
            timed.append(c)
            done += c.wall
            if c.problems:
                break
        return timed

    # -- traced run ---------------------------------------------------------

    def traced(self, untraced: list) -> dict:
        from perfbench import trace

        tracer = trace.Tracer()
        c = self.call(spans=trace.caller_spans(tracer))
        m = {}
        res = c.result or {}
        spans = trace.map_task_spans(c.t0, c.t1, expect_at_least=res.get("ran", 0))
        m.update(trace.ray_metrics(c.t0, c.t1, spans, tracer.windows.get("ray.data.count", [])))

        buckets = None
        if self.workload == "resume":
            buckets = (self.n_buckets, set(self.resumed_buckets()))
        t = time.perf_counter()
        trace.replay(self.in_dir, self.plan, buckets)
        baseline = time.perf_counter() - t
        rtracer = trace.Tracer()
        rows = trace.replay(self.in_dir, self.plan, buckets, tracer=rtracer)
        m.update(trace.replay_metrics(rtracer, rows))

        wall = statistics.median(x.wall for x in untraced)
        sinks = [tree_size(os.path.join(self.out, d), ".parquet") for d in ("sinks", "parsed")]
        man = [v for k, v in tracer.stats.items() if k.startswith("state.manifests.")]
        m.update(
            {
                "baseline.inproc_s": (baseline, "s"),
                "pipelines.run.overhead_s": (wall - baseline, "s"),
                "sinks.files": (sum(n for n, _ in sinks), "count"),
                "sinks.bytes": (sum(b for _, b in sinks), "bytes"),
                "state.manifests.files": (
                    tree_size(os.path.join(self.out, "_manifest"), ".json")[0],
                    "count",
                ),
                "state.manifests.calls": (sum(v[0] for v in man), "count"),
                "state.manifests.s": (sum(v[2] for v in man), "s"),
                "resume.ran": (res.get("ran", 0), "count"),
                "resume.skipped": (res.get("skipped", 0), "count"),
                "resume.cleaned_files": (c.cleaned, "count"),
                "trace.overhead_s": (c.wall - wall, "s"),
            }
        )
        return m

    # -- whole run ----------------------------------------------------------

    def run(self, t_process_start: float) -> dict:
        from perfbench.harness import RaySession

        # import the pipeline before Ray starts: part of set-up time
        import console_log_parser_ray.pipelines.run  # noqa: F401

        with RaySession(ROOT, RAY_CPUS):
            print(f"perfbench: set-up: import and Ray {time.perf_counter() - t_process_start:.3f} s", file=sys.stderr)
            self.setup()
            timed = self.timed_calls(t_process_start)
            # process start until the first timed call begins
            setup_s = timed[0].start - t_process_start
            ok = [c for c in timed if not c.problems] or timed
            if self.trace:
                # a failed run reports its failure, not layer numbers
                metrics = {} if timed[-1].problems else self.traced(timed)
            else:
                metrics = {
                    "turns_per_s": (
                        statistics.median(self.n_turns / c.wall for c in ok),
                        "turns/s",
                    ),
                    "setup_s": (setup_s, "s"),
                    "peak_rss_mb": (statistics.median(c.rss_mb for c in ok), "MB"),
                    "output_mb": (statistics.median(c.out_bytes / 1e6 for c in ok), "MB"),
                    "success_rate": (
                        sum(1 for c in timed if not c.problems) / len(timed),
                        "ratio",
                    ),
                }
        failed = sum(1 for c in self.calls if c.problems)
        return {
            "correct": failed == 0,
            "attempted": len(self.calls),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def main(argv=None) -> int:
    from perfbench.harness import seconds_since_process_start

    t_process_start = time.perf_counter() - seconds_since_process_start()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "console_log_parser_ray", "pipelines", "run.py")):
        print(f"perfbench: no console_log_parser_ray package under {ROOT}", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, str(os.getpid()))
    os.makedirs(workdir)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        result = bench.run(t_process_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # import the package and this benchmark from the checkout, never
    # from the perfbench/ directory itself
    sys.path[0] = ROOT
    sys.exit(main())
