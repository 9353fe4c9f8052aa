"""Fresh child processes, one at a time, each under a hard deadline.

Every child starts in its own process group.  A child that reaches its
deadline is killed with the whole group, and after each child the group
is probed once more so that a process left behind is reported instead of
running on beside the next measurement.
"""

import contextlib
import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ChildResult:
    returncode: int  # -9 after a kill at the deadline
    wall_s: float  # from spawn to exit, or to the kill
    line: str  # first line of stdout when asked for, else ""
    line_s: float  # seconds from spawn to that line (nan without one)
    maxrss_mb: float
    timed_out: bool
    orphans: int  # processes of the child's group still alive after it

    @property
    def ok(self):
        return self.returncode == 0 and not self.timed_out and not self.orphans


def _read_line(fd, until):
    data = b""
    while not data.endswith(b"\n"):
        remaining = until - time.perf_counter()
        if remaining <= 0.0 or not select.select([fd], [], [], remaining)[0]:
            return None
        chunk = os.read(fd, 4096)
        if not chunk:
            return None
        data += chunk
    return data.decode(errors="replace").splitlines()[0]


def _leftover(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return 0
    os.killpg(pgid, signal.SIGKILL)
    return 1


def run_child(argv, deadline_s, env, cwd, stderr_path, read_line=False):
    """Run argv to completion or to the deadline; never leaves it running."""
    start = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if read_line else subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
    pidfd = os.pidfd_open(proc.pid)
    until = start + deadline_s
    line, line_s = "", float("nan")
    try:
        if read_line:
            got = _read_line(proc.stdout.fileno(), until)
            if got is not None:
                line, line_s = got, time.perf_counter() - start
        remaining = max(0.0, until - time.perf_counter())
        timed_out = not select.select([pidfd], [], [], remaining)[0]
        wall = time.perf_counter() - start
        if timed_out:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        os.close(pidfd)
        if proc.stdout is not None:
            proc.stdout.close()
        if proc.returncode is None:  # interrupted before the wait
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        line=line,
        line_s=line_s,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        timed_out=timed_out,
        orphans=_leftover(proc.pid),
    )


def stderr_tail(path, limit=300):
    try:
        with open(path, "rb") as f:
            text = f.read().decode(errors="replace").strip()
    except OSError:
        return ""
    return text[-limit:].replace("\n", " | ")
