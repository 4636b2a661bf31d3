"""Checkpoint-resume: a killed run's unfinished buckets re-run; finished
buckets are skipped; final sinks equal a clean run's."""

import glob
import hashlib
import os
import shutil

import pyarrow.parquet as pq
import pytest

from console_log_parser_ray.sources.synth import gen_table
from console_log_parser_ray.state import manifests as M


@pytest.fixture(scope="module")
def small_input(tmp_path_factory):
    d = tmp_path_factory.mktemp("transcripts")
    tbl = gen_table(12, seed=7, mean_turns=25)
    pq.write_table(tbl, str(d / "part-0.parquet"))
    return str(d)


def _parsed_rows(out_dir):
    files = sorted(glob.glob(os.path.join(out_dir, "parsed", "**", "*.parquet"), recursive=True))
    rows = []
    for f in files:
        t = pq.read_table(f, columns=["conv_id", "turn_idx", "clean_text"])
        rows.extend(
            zip(
                t.column("conv_id").to_pylist(),
                t.column("turn_idx").to_pylist(),
                t.column("clean_text").to_pylist(),
            )
        )
    return sorted(rows)


def test_resume_completes_partial_run(ray_session, small_input, tmp_path):
    from console_log_parser_ray.pipelines.run import run_flagship

    clean_dir = str(tmp_path / "clean")
    run_flagship(small_input, clean_dir, n_buckets=8)
    want = _parsed_rows(clean_dir)
    assert len(M.completed_partitions(clean_dir)) == 8

    # simulate a crash: a full run with some buckets' work lost --
    # remove two buckets' manifests and their outputs, plus leave one
    # bucket with partial (uncommitted) output
    crash_dir = str(tmp_path / "crash")
    run_flagship(small_input, crash_dir, n_buckets=8)
    for b in (2, 5):
        os.remove(M.manifest_path(crash_dir, b))
        M.clean_partition_outputs(crash_dir, [b])
        shutil.rmtree(
            os.path.join(crash_dir, "parsed", f"bucket={b}"), ignore_errors=True
        )
    # bucket 3: manifest missing but stale partial output present
    os.remove(M.manifest_path(crash_dir, 3))

    run_flagship(small_input, crash_dir, n_buckets=8)
    assert len(M.completed_partitions(crash_dir)) == 8
    assert _parsed_rows(crash_dir) == want


def _digests(out_dir):
    out = {}
    for sub in ("parsed", "sinks"):
        for f in glob.glob(os.path.join(out_dir, sub, "**", "*.parquet"), recursive=True):
            with open(f, "rb") as fh:
                out[os.path.relpath(f, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("plan", ["sharded", "bucketed"])
def test_flagship_runs_without_ray_data(ray_session, small_input, tmp_path, monkeypatch, plan):
    """Both plans launch their partitions (and the bucketed scatter) as
    plain Ray tasks: with Ray Data's entry points raising in the driver
    the run still finishes, and its sink bytes equal an unpatched run's."""
    import ray.data

    from console_log_parser_ray.pipelines.run import run_flagship

    want_dir = str(tmp_path / "want")
    run_flagship(small_input, want_dir, n_buckets=4, plan=plan, resume=False)
    want = _digests(want_dir)
    assert want

    def no_ray_data(*_a, **_k):
        raise AssertionError("the flagship called Ray Data")

    monkeypatch.setattr(ray.data, "from_items", no_ray_data)
    monkeypatch.setattr(ray.data, "read_parquet", no_ray_data)
    got_dir = str(tmp_path / "got")
    run_flagship(small_input, got_dir, n_buckets=4, plan=plan, resume=False)
    assert _digests(got_dir) == want


class _Expired(BaseException):
    pass


def _expire(_signum, _frame):
    raise _Expired


def _all_cpus_free(ray, within_s=3.0):
    """True once no task holds a CPU (a cancelled task has ended)."""
    import time

    deadline = time.perf_counter() + within_s
    while time.perf_counter() < deadline:
        if ray.available_resources().get("CPU") == ray.cluster_resources()["CPU"]:
            return True
        time.sleep(0.1)
    return False


def test_partition_wait_lets_a_time_limit_through(ray_session):
    """An exception raised by a signal handler while the flagship waits
    for its tasks (a caller's SIGALRM time limit) reaches the caller as
    raised and at once, not when the tasks end, and the tasks it waited
    for are cancelled."""
    import signal
    import time

    from console_log_parser_ray.pipelines.run import _run_tasks

    def nap(s):
        time.sleep(s)

    _run_tasks(nap, [(0,)])  # warm: the alarm must land in the wait
    old = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    t = time.perf_counter()
    try:
        with pytest.raises(_Expired):
            _run_tasks(nap, [(5,)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.perf_counter() - t < 4
    assert _all_cpus_free(ray_session)


def test_giant_path_lets_a_time_limit_through(ray_session, tmp_path, monkeypatch):
    """The same for the ``skew_threshold`` path: a time limit that fires
    while a giant conversation is parsed reaches the caller at once, the
    giant's tasks are cancelled, and its partition never commits.  The
    timer is armed as the giant's stitch walk starts, while its
    speculative scans are in flight, so it fires inside the giant path
    however fast that path is."""
    import signal
    import time

    import pyarrow as pa

    from console_log_parser_ray.pipelines import run

    d = tmp_path / "in"
    d.mkdir()
    small = gen_table(4, seed=9, mean_turns=20)
    giant = gen_table(1, seed=9, mean_turns=60_000, start=100)
    pq.write_table(pa.concat_tables([small, giant]), str(d / "part-0.parquet"))

    stitch = run.stitch
    armed, stitched = [], []

    def arm_then_stitch(*a, **k):
        signal.setitimer(signal.ITIMER_REAL, 0.001)
        armed.append(time.perf_counter())
        out = stitch(*a, **k)
        stitched.append(True)
        return out

    monkeypatch.setattr(run, "stitch", arm_then_stitch)
    out = str(tmp_path / "out")
    old = signal.signal(signal.SIGALRM, _expire)
    try:
        with pytest.raises(_Expired):
            run.run_flagship(str(d), out, n_buckets=2, skew_threshold=1000)
        took = time.perf_counter() - armed[0]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert not stitched  # the limit fired inside the stitch walk
    assert took < 4
    assert _all_cpus_free(ray_session)
    assert M.completed_partitions(out) == set()


def test_resume_skips_completed(ray_session, small_input, tmp_path):
    from console_log_parser_ray.pipelines.run import run_flagship

    out = str(tmp_path / "out")
    run_flagship(small_input, out, n_buckets=4)
    # record mtimes of bucket-0 parsed files
    files = sorted(
        glob.glob(os.path.join(out, "parsed", "bucket=0", "*.parquet"))
    )
    mtimes = {f: os.path.getmtime(f) for f in files}
    run_flagship(small_input, out, n_buckets=4)
    for f, m in mtimes.items():
        assert os.path.getmtime(f) == m, "completed bucket was rewritten"


@pytest.mark.parametrize(
    "rows, n_cpus, want",
    [
        (59_384, 1, 4),  # perfbench input
        (10_000_000, 1, 39),  # sf0.1, one CPU: capped at MAX_ROWS a bucket
        (10_000_000, 32, 128),  # sf0.1, 32 CPUs: 4 buckets per CPU
        (16_383, 1, 1),  # below MIN_ROWS
        (16_383, 32, 1),
        (0, 4, 1),
    ],
)
def test_bucket_count_rule(rows, n_cpus, want):
    from console_log_parser_ray.pipelines.run import bucket_count

    assert bucket_count(rows, n_cpus) == want


def test_resume_keeps_pinned_bucket_count(ray_session, small_input, tmp_path):
    """A run primed at an explicit 128 buckets resumes at 128 when the
    caller passes no count, though the default rule would pick 1."""
    from console_log_parser_ray.pipelines.run import run_flagship

    out = str(tmp_path / "out")
    run_flagship(small_input, out, n_buckets=128)
    for b in (3, 64, 127):
        os.remove(M.manifest_path(out, b))
    res = run_flagship(small_input, out)
    assert res["buckets"] == 128
    assert (res["ran"], res["skipped"]) == (3, 125)
    assert M.completed_partitions(out) == set(range(128))


def test_default_bucket_count_from_row_count(ray_session, tmp_path):
    """Without a pin or an explicit count, the run commits as many
    bucket manifests as ``bucket_count`` predicts from the footers."""
    import ray

    from console_log_parser_ray.pipelines.run import bucket_count, run_flagship

    d = tmp_path / "in"
    d.mkdir()
    rows = 0
    for i, start in enumerate((0, 60)):
        t = gen_table(60, seed=5, mean_turns=300, start=start)
        pq.write_table(t, str(d / f"part-{i}.parquet"))
        rows += t.num_rows
    want = bucket_count(rows, int(ray.cluster_resources()["CPU"]))
    assert want > 1

    out = str(tmp_path / "out")
    res = run_flagship(str(d), out)
    assert res["buckets"] == want
    assert M.completed_partitions(out) == set(range(want))
    parsed = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(out, "parsed", "*", "*.parquet"))
    )
    assert parsed == rows


def test_clean_partition_outputs_removes_exactly_the_given_partitions(tmp_path):
    """One cleanup call over a subset of one kind's partitions removes
    those ``<kind>=<pid>`` directories from every sink and leaves every
    other partition's files -- of either kind -- untouched."""
    import pyarrow as pa

    from console_log_parser_ray.pipelines.run import write_sinks

    out = str(tmp_path / "out")
    tbl = pa.table({"x": [1, 2]})
    sinks = ["parsed", "by_role/role=user", "by_tool/sink=shell", "vim_sessions"]
    for kind in ("bucket", "shard"):
        for pid in range(5):
            write_sinks(out, kind, pid, [(s, tbl) for s in sinks])

    def files():
        snap = {}
        for root, _dirs, names in os.walk(out):
            for n in names:
                st = os.stat(os.path.join(root, n))
                snap[os.path.join(root, n)] = (st.st_ino, st.st_mtime_ns)
        return snap

    before = files()
    M.clean_partition_outputs(out, [1, 3], "bucket")
    after = files()

    def pid_dir(path):
        return next(p for p in path.split(os.sep) if p.startswith(("bucket=", "shard=")))

    gone = {p for p in before if pid_dir(p) in ("bucket=1", "bucket=3")}
    assert len(gone) == 2 * len(sinks)
    assert set(after) == set(before) - gone
    assert all(after[p] == before[p] for p in after)
    for pid in (1, 3):
        for s in sinks:
            assert not os.path.exists(M.sink_dir(out, s, pid))
    # no pids: nothing to walk, nothing removed
    M.clean_partition_outputs(out, [], "shard")
    assert files() == after
