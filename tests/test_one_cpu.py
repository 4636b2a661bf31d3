"""The registry's parse paths finish on a one-CPU Ray cluster.

The session fixture declares 4 CPUs, which hides plans that need more
than one worker at a time, so each check runs in a fresh subprocess
that starts its own local Ray at ``num_cpus=1``.  The subprocess leads
its own process group and has a time limit; on timeout the whole group
is killed, so no Ray process outlives the test.
"""

import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMIT_S = 120

_SCRIPT = """
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False)
import __ray_entry__ as m

n_entry = m.entry().count()
n_chapters = m.queries()["chapters_enrich"]("sf0.001").count()
ray.shutdown()
print(n_entry, n_chapters)
"""


def test_entry_and_chapters_enrich_on_one_cpu():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([REPO, os.environ.get("PYTHONPATH", "")]),
        RAY_USAGE_STATS_ENABLED="0",
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"entry()/chapters_enrich did not finish in {LIMIT_S} s at num_cpus=1")
    finally:
        try:  # Ray processes that outlive a clean exit
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert proc.returncode == 0, err[-4000:]
    n_entry, n_chapters = map(int, out.split()[-2:])
    assert n_entry > 0 and n_chapters > 0
