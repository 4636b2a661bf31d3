"""The registry's parse paths and per-batch map stages finish on a
one-CPU Ray cluster.

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
import sys

import ray

ray.init(address="local", num_cpus=1, include_dashboard=False)
import __ray_entry__ as m

counts = []
for name in sys.argv[1:]:
    if name == "entry":
        counts.append(m.entry().count())
    else:
        counts.append(m.queries()[name]("/root/testdata/sf0.001").count())
ray.shutdown()
print(*counts)
"""


def _counts_on_one_cpu(*names) -> list:
    """Row counts of ``names`` (registry queries, or ``entry``) run in
    order in one fresh ``num_cpus=1`` process."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([REPO, os.environ.get("PYTHONPATH", "")]),
        RAY_USAGE_STATS_ENABLED="0",
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, *names],
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
        pytest.fail(f"{', '.join(names)} did not finish in {LIMIT_S} s at num_cpus=1")
    finally:
        try:  # Ray processes that outlive a clean exit
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert proc.returncode == 0, err[-4000:]
    return list(map(int, out.split()[-len(names):]))


def test_entry_and_chapters_enrich_on_one_cpu():
    n_entry, n_chapters = _counts_on_one_cpu("entry", "chapters_enrich")
    assert n_entry > 0 and n_chapters > 0


def test_map_stages_on_one_cpu():
    """Language id, the broadcast join and media decode run as task
    ``map_batches``; as actor pools they did not finish on one CPU."""
    counts = _counts_on_one_cpu("lang_pred", "orders_enrich", "media_features")
    assert all(n > 0 for n in counts), counts
