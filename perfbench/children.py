"""Run one child process at a time and account for it on its own.

Peak RSS and CPU time come from ``os.wait4`` on the child's pid, so each
figure belongs to that child alone. ``resource.getrusage(RUSAGE_CHILDREN)``
would not do: its ``ru_maxrss`` is the maximum over every child reaped so
far, so one 1M-row ingest makes every later small call read ~300 MB.

Output goes to files rather than pipes, so a child can never block on a
full pipe while the parent sits in ``wait4``.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass

# No single invocation in any workload comes near this; a child still
# running after it is killed and its operation counted as failed.
CHILD_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    user_s: float
    sys_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool

    @property
    def cpu_s(self) -> float:
        return self.user_s + self.sys_s


def run_child(
    argv: list[str], env: dict[str, str], cwd: str, scratch_dir: str
) -> ChildResult:
    """Start ``argv``, wait for it with ``wait4`` and return its account.

    Wall time runs from just before the spawn to the moment ``wait4``
    returns, which is what a caller waiting on the process sees.
    """
    with tempfile.TemporaryFile(dir=scratch_dir) as out, tempfile.TemporaryFile(
        dir=scratch_dir
    ) as err:
        timed_out = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=cwd)
        reaped = threading.Event()

        def kill() -> None:
            if not reaped.is_set():
                timed_out.set()
                os.kill(proc.pid, 9)

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            reaped.set()
            timer.cancel()
        wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it never waits on the pid again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            returncode=proc.returncode,
            wall_s=wall,
            user_s=usage.ru_utime,
            sys_s=usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            timed_out=timed_out.is_set(),
        )
