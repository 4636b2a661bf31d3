"""Process-level harness: one local Ray per benchmark process, hard
per-call time limits, and memory readings from ``/proc``.

The benchmark process makes itself a child subreaper before Ray starts,
so every process Ray spawns (GCS, raylet, agents, workers) stays its
descendant even after its parent exits.  Closing the session therefore
can wait until the process has no children left at all, killing any
that outlive a grace period -- nothing from a run survives it.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import sys
import tempfile
import time

_PR_SET_CHILD_SUBREAPER = 36


class CallTimeout(BaseException):
    """Raised inside a call that exceeded its limit.  A BaseException so
    that library code catching ``Exception`` cannot swallow it."""


def call_with_limit(fn, limit_s: float):
    """Run ``fn()`` and raise :class:`CallTimeout` if it is still running
    after ``limit_s`` seconds (main thread only: uses SIGALRM)."""

    def _expired(_signum, _frame):
        raise CallTimeout(f"call exceeded {limit_s:g} s")

    old = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _proc_table() -> dict:
    """pid -> (ppid, state) for every live process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # comm may hold spaces and parentheses: split after the last ')'
        fields = stat[stat.rindex(")") + 2 :].split()
        out[int(name)] = (int(fields[1]), fields[0])
    return out


def descendants(root: int | None = None) -> list:
    """Live (non-zombie) descendants of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    table = _proc_table()
    children = {}
    for pid, (ppid, _state) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, stack = [], [root]
    while stack:
        for c in children.get(stack.pop(), ()):
            if table[c][1] != "Z":
                out.append(c)
            stack.append(c)
    return out


def _cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def ray_workers() -> list:
    """Descendant Ray worker processes (they retitle to ``ray::...``)."""
    return [p for p in descendants() if _cmdline(p).startswith(b"ray::")]


def reset_peak_rss(pids) -> None:
    """Reset VmHWM (Linux >= 4.0) so the next reading covers only what
    follows; processes that vanished or refuse are skipped."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass


def peak_rss_mb(pids) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb * 1024 / 1e6


def seconds_since_process_start() -> float:
    with open("/proc/self/stat") as fh:
        stat = fh.read()
    start_ticks = int(stat[stat.rindex(")") + 2 :].split()[19])
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def wait_for_no_children(grace_s: float = 20.0, kill_wait_s: float = 10.0) -> list:
    """Reap children until none is left; SIGKILL what remains after
    ``grace_s``.  Returns the pids that had to be killed.  Raises
    RuntimeError if a descendant survives even that."""
    killed = []
    deadline = time.monotonic() + grace_s
    while True:
        try:
            while True:
                pid, _status = os.waitpid(-1, os.WNOHANG)
                if pid == 0:
                    break
        except ChildProcessError:
            return killed
        now = time.monotonic()
        if now > deadline:
            if now > deadline + kill_wait_s:
                raise RuntimeError(f"processes still alive: {descendants()}")
            for pid in descendants():
                if pid not in killed:
                    try:
                        os.kill(pid, signal.SIGKILL)
                        killed.append(pid)
                    except ProcessLookupError:
                        pass
        time.sleep(0.05)


def _terminate(_signum, _frame):
    raise SystemExit(128 + signal.SIGTERM)


class RaySession:
    """``with RaySession(package_root, num_cpus):`` -- one local Ray
    runtime whose processes are all gone when the block exits, however
    it exits.

    Ray's session directory is a private directory in the system temp
    dir, removed on close: Ray puts its unix sockets under it, and
    AF_UNIX paths are limited to 107 bytes, which a checkout path could
    exceed."""

    def __init__(self, package_root: str, num_cpus: int):
        self.package_root = package_root
        self.num_cpus = num_cpus
        self._temp_dir = None
        self._old_sigterm = None

    def __enter__(self):
        # no implicit ray.init(): a Ray Data thread still running after a
        # timed-out call must not start a second, untracked cluster once
        # this one is shut down
        os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"
        import ray
        from ray._private import auto_init_hook

        auto_init_hook.enable_auto_connect = False  # ray may be imported already
        libc = ctypes.CDLL(None, use_errno=True)
        if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
        # workers start in their own working directory: they find the
        # package through PYTHONPATH, whatever the launch directory
        paths = [self.package_root] + [
            p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        os.environ["PYTHONPATH"] = os.pathsep.join(paths)
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        self._temp_dir = tempfile.mkdtemp(prefix="pb-ray-")
        try:
            ray.init(
                address="local",
                num_cpus=self.num_cpus,
                include_dashboard=False,
                log_to_driver=False,
                object_store_memory=512 * 1024 * 1024,
                _temp_dir=self._temp_dir,
            )
        except BaseException:
            self.close()
            raise
        # after ray.init, which installs its own SIGTERM handler: a
        # terminated run unwinds through close() like any other exit
        self._old_sigterm = signal.signal(signal.SIGTERM, _terminate)
        return self

    def close(self):
        import ray

        try:
            ray.shutdown()
        finally:
            killed = wait_for_no_children()
            if killed:
                print(f"perfbench: killed processes left after ray.shutdown: {killed}", file=sys.stderr)
            if self._old_sigterm is not None:
                signal.signal(signal.SIGTERM, self._old_sigterm)
            if self._temp_dir:
                shutil.rmtree(self._temp_dir, ignore_errors=True)

    def __exit__(self, *exc):
        self.close()
        return False
