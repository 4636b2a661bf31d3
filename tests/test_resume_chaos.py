"""SIGKILL-mid-gather chaos test for the bucketed runner at sf0.1.

The toy-scale resume tests (test_resume*.py) delete a manifest and
re-run in-process; this one exercises the real failure mode the
manifest protocol exists for: a driver process killed with SIGKILL
while gather tasks are mid-flight at data scale (sf0.1: 50k
conversations, 10M turns, 260 MB of transcripts), leaving committed
manifests, half-written buckets and a live staging directory behind.
A resumed run must skip the committed buckets and converge on sinks
BYTE-identical to a never-crashed run -- the exactly-once story.

The input is the cached sf0.1 transcripts with the _CONV_PARTITIONED
marker stripped (symlinked files, no copy), which forces the generic
bucketed scatter-gather plan.  Runs and the crash victim live in
subprocesses with their own Ray sessions (num_cpus=16) so the kill
cannot touch the pytest session; wall time is ~2.5 minutes.
"""

import glob
import hashlib
import os
import signal
import subprocess
import sys
import time

import pytest

SF_DIR = "/root/testdata/sf0.1"
N_BUCKETS = 64

_RUNNER = r"""
import sys
sys.path.insert(0, "/root/repo")
import ray
ray.init(address="local", num_cpus=16, include_dashboard=False)
from console_log_parser_ray.pipelines.run import run_flagship
res = run_flagship(sys.argv[1], sys.argv[2], n_buckets=int(sys.argv[3]))
print("DONE", res["ran"], res["skipped"], res["routed_rows"], flush=True)
ray.shutdown()
"""


@pytest.fixture(scope="module")
def bucketed_input(ray_session, tmp_path_factory):
    from console_log_parser_ray.sources.cache import ensure_transcripts

    src = ensure_transcripts(SF_DIR)
    d = tmp_path_factory.mktemp("sf01_bucketed_input")
    for f in sorted(glob.glob(os.path.join(src, "*.parquet"))):
        os.symlink(f, str(d / os.path.basename(f)))
    # no _CONV_PARTITIONED marker -> generic bucketed plan
    return str(d)


def _digests(out_dir):
    files = sorted(
        glob.glob(
            os.path.join(out_dir, "parsed", "**", "*.parquet"),
            recursive=True,
        )
        + glob.glob(
            os.path.join(out_dir, "sinks", "**", "*.parquet"),
            recursive=True,
        )
    )
    out = {}
    for f in files:
        with open(f, "rb") as fh:
            out[os.path.relpath(f, out_dir)] = hashlib.sha256(
                fh.read()
            ).hexdigest()
    return out


def _spawn(input_dir, out_dir, log_path):
    lf = open(log_path, "wb")
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            _RUNNER,
            input_dir,
            out_dir,
            str(N_BUCKETS),
        ],
        stdout=lf,
        stderr=subprocess.STDOUT,
        start_new_session=True,  # killpg must not reach pytest's Ray
        cwd="/root/repo",
        env=dict(os.environ, PYTHONPATH="/root/repo"),
    )


def _wait_done(proc, log_path, timeout=480):
    rc = proc.wait(timeout=timeout)
    with open(log_path, "rb") as fh:
        log = fh.read()
    assert rc == 0 and b"DONE" in log, log[-2000:].decode(errors="replace")
    return log.split(b"DONE", 1)[1].split()


def test_sharded_kill_midrun_resume_byte_identical(ray_session, tmp_path):
    """A SIGKILL mid-run of the sharded plan leaves some shards
    committed and others with stale partial sink files and no
    manifest -- the resume must wipe those (clean_partition_outputs),
    skip the committed ones, and still converge byte-identical."""
    from console_log_parser_ray.sources.cache import ensure_transcripts

    src = ensure_transcripts(SF_DIR)  # keeps its _CONV_PARTITIONED marker

    clean = str(tmp_path / "clean")
    crash = str(tmp_path / "crash")

    p = _spawn(src, clean, str(tmp_path / "clean.log"))
    parts = _wait_done(p, str(tmp_path / "clean.log"))
    n_shards = int(parts[0]) + int(parts[1])
    want = _digests(clean)
    assert want

    # kill once a handful of shard tasks have written sink files
    p = _spawn(src, crash, str(tmp_path / "crash.log"))
    deadline = time.time() + 480
    killed = False
    while time.time() < deadline:
        if p.poll() is not None:
            break
        n = len(
            glob.glob(
                os.path.join(crash, "sinks", "**", "*.parquet"),
                recursive=True,
            )
        )
        if n >= 20:
            os.killpg(p.pid, signal.SIGKILL)
            killed = True
            break
        time.sleep(0.05)
    assert killed, "run finished before the kill"
    p.wait(timeout=60)
    # partial sink output exists with few committed manifests
    committed = len(
        glob.glob(os.path.join(crash, "_manifest", "shard-*.json"))
    )
    assert committed < n_shards

    p = _spawn(src, crash, str(tmp_path / "resume.log"))
    parts = _wait_done(p, str(tmp_path / "resume.log"))
    assert int(parts[0]) + int(parts[1]) == n_shards
    assert _digests(crash) == want


def test_bucketed_kill_midgather_resume_byte_identical(
    bucketed_input, tmp_path
):
    clean = str(tmp_path / "clean")
    crash = str(tmp_path / "crash")

    # 1. never-crashed reference run
    p = _spawn(bucketed_input, clean, str(tmp_path / "clean.log"))
    _wait_done(p, str(tmp_path / "clean.log"))
    want = _digests(clean)
    assert len(want) > N_BUCKETS  # parsed + routed sinks, many buckets

    # 2. chaos run: SIGKILL the whole process group once a handful of
    # gather tasks have committed manifests (mid-gather by definition:
    # other buckets are still writing)
    p = _spawn(bucketed_input, crash, str(tmp_path / "crash.log"))
    mdir = os.path.join(crash, "_manifest")
    deadline = time.time() + 480
    committed_at_kill = None
    while time.time() < deadline:
        if p.poll() is not None:  # finished before we could kill it
            break
        n = len(glob.glob(os.path.join(mdir, "bucket-*.json")))
        if n >= 6:
            os.killpg(p.pid, signal.SIGKILL)
            committed_at_kill = n
            break
        time.sleep(0.05)
    assert committed_at_kill is not None, "run finished before the kill"
    p.wait(timeout=60)
    # the crash site must look like a real crash: some manifests
    # committed, the rest of the run torn off mid-flight
    assert len(glob.glob(os.path.join(mdir, "bucket-*.json"))) < N_BUCKETS

    # 3. resume in a fresh process; committed buckets are skipped
    p = _spawn(bucketed_input, crash, str(tmp_path / "resume.log"))
    parts = _wait_done(p, str(tmp_path / "resume.log"))
    ran, skipped = int(parts[0]), int(parts[1])
    assert skipped >= committed_at_kill
    assert ran + skipped == N_BUCKETS

    # 4. byte-identical sinks, file for file
    got = _digests(crash)
    assert got == want
    # and no staging/tmp debris behind the committed tree
    assert not os.path.isdir(os.path.join(crash, "_staging"))
    assert not [
        f
        for f in glob.glob(
            os.path.join(crash, "**", "*.tmp.*"), recursive=True
        )
    ]
