"""Rows of a table computed in two processes.

This is the process side of :func:`qcover.bounds.bound_table_rows`, whose
rows are independent. :func:`forked_rows` computes rows from the bottom of
the range upward. Where the table has at least two rows, fork() exists, at
least two CPUs are available and only one Python thread runs, it forks one
helper process before the first row. The helper computes rows from the top
of the range downward and sends each through a pipe as packed doubles;
after each row this process reads what has arrived, without waiting, and
stops computing when its next row has arrived. A helper that fails, dies or
stalls only leaves more rows to this process, so the rows, and any
exception, are the serial ones. The helper is killed and reaped when the
generator finishes, is closed or raises.
"""

from __future__ import annotations

import os
import signal
import struct
import threading
from typing import Callable, Iterator, Optional


def _can_fork() -> bool:
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _fork_helper(row: Callable[[int], tuple], packed: struct.Struct, r_low: int, r_max: int) -> Optional[tuple]:
    """Fork a process that sends the rows of r_max, r_max - 1, ..., r_low,
    and exits; returns its (pid, non-blocking read end), or None if no
    process could be made. The child never returns from here."""
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        try:
            os.close(rfd)
            for R in range(r_max, r_low - 1, -1):
                os.write(wfd, packed.pack(*row(R)[1:]))
        finally:
            os._exit(0)
    os.close(wfd)
    os.set_blocking(rfd, False)
    return pid, rfd


def forked_rows(
    row: Callable[[int], tuple], packed: struct.Struct, r_min: int, r_max: int, may_fork: bool
) -> Iterator[tuple]:
    """Yield ``row(R)`` for R = r_min..r_max in order. Where ``may_fork``
    holds, r_min < r_max and the host allows it, a helper process forked
    before the first row computes the rows of r_max down to r_min + 1.

    ``row(R)`` returns R followed by the values ``packed`` packs.
    """
    helper = None
    if may_fork and r_min < r_max and _can_fork():
        helper = _fork_helper(row, packed, r_min + 1, r_max)
    sent = bytearray()  # the helper's rows of r_max, r_max - 1, ...
    R = r_min
    try:
        while R <= r_max - len(sent) // packed.size:
            done = row(R)
            R += 1
            if helper is not None:
                try:
                    sent += os.read(helper[1], 1 << 16)
                except BlockingIOError:
                    pass
            yield done
        for R in range(R, r_max + 1):
            yield (R, *packed.unpack_from(sent, (r_max - R) * packed.size))
    finally:
        if helper is not None:
            os.close(helper[1])
            try:
                os.kill(helper[0], signal.SIGKILL)
                os.waitpid(helper[0], 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped already, as where SIGCHLD is ignored
