"""Rows of a table computed in two processes.

This is the process side of :func:`qcover.bounds.bound_table_rows`, whose
rows are independent. :func:`forked_rows` computes rows from the bottom of
the range upward. Where fork() exists, at least two CPUs are available and
only one Python thread runs, it forks one helper process once the rows left
are predicted, from the time of those done, to take more than a few
milliseconds. The helper computes rows from the top of the range downward
and sends each through a pipe as packed doubles; after each row this
process reads what has arrived, without waiting, and stops computing when
its next row has arrived. A helper that fails, dies or stalls only leaves
more rows to this process, so the rows, and any exception, are the serial
ones. The helper is killed and reaped when the generator finishes, is
closed or raises.
"""

from __future__ import annotations

import os
import signal
import struct
import threading
import time
from typing import Callable, Iterator, Optional

#: a helper costs this process about 1 ms on a 2-vCPU host and saves at
#: most half of the rows left; it broke even on 4 rows left of 0.84 ms each,
#: so it starts only when the rows left are predicted to take longer than this
HELPER_MIN_S = 4e-3


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
    """Yield ``row(R)`` for R = r_min..r_max in order, with a helper process
    where ``may_fork`` and the host allow one.

    ``row(R)`` returns R followed by the values ``packed`` packs.
    """
    can_fork = may_fork and _can_fork()
    helper = None
    sent = bytearray()  # the helper's rows of r_max, r_max - 1, ...
    start = time.perf_counter()
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
            elif can_fork:
                per_row = (time.perf_counter() - start) / (R - r_min)
                if per_row * (r_max - R + 1) > HELPER_MIN_S:
                    helper = _fork_helper(row, packed, R, r_max)
                    can_fork = False
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
