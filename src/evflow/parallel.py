"""Contiguous blocks of independent work in forked processes.

``estimate``'s frame pairs and ``simulate``'s substeps share one shape: a
numbered run of items, where a block of consecutive items can be produced
from state that is known before the run starts.  ``blocks`` cuts the items
into one contiguous block per worker (``default_workers``), and ``forked``
runs each later block in a child process forked before any work, while this
process runs the first one; the items still come out in order.  A child
hands its items back through an unlinked temporary file, so it never waits
for the parent, and ends with ``os._exit``.  Nothing here starts a thread.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections.abc import Callable, Iterator
from typing import NoReturn

from .errors import WorkerError


def default_workers() -> int:
    """Processes to run at once: two where two CPUs are usable, else one."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def blocks(n_items: int, workers: int) -> list[tuple[int, int]]:
    """The ``[first, stop)`` ranges of ``n_items`` items, one per worker; a
    single block for one worker, fewer than two items a block or no
    ``os.fork``."""
    if n_items < 2 * workers or not hasattr(os, "fork"):
        workers = 1
    bounds = [n_items * b // workers for b in range(workers + 1)]
    return list(zip(bounds, bounds[1:]))


def forked(spans: list[tuple[int, int]], body: Callable[[int, int], Iterator],
           noun: str) -> Iterator:
    """The items ``body(first, stop)`` yields for each of ``spans``, in order.

    This process runs the first span's body and yields its items as they
    come; before that it forks one child per later span, which pickles its
    items to an unlinked temporary file.  Each child's items follow, in span
    order, once the child has exited.  An exception that ends a body, in any
    process, is raised after every item before it (a body yields no
    exceptions).  A child that cannot be started, or that dies without a
    result, raises WorkerError naming its ``noun`` range and the OSError or
    exit status.  No child outlives the generator, even one closed early.
    """
    spools, pids = [], []  # a later span's spool and child, 0 once reaped
    try:
        for first, stop in spans[1:]:
            try:
                spools.append(tempfile.TemporaryFile())
                pid = os.fork()
            except OSError as exc:
                raise WorkerError(f"cannot start the process of {noun} {first}-{stop - 1}: "
                                  f"{exc.strerror or exc}") from exc
            if pid == 0:
                _spool(spools[-1], body(first, stop))
            pids.append(pid)
        yield from body(*spans[0])
        for i, (first, stop) in enumerate(spans[1:]):
            status = os.waitpid(pids[i], 0)[1]
            pids[i] = 0
            if status:
                code = os.waitstatus_to_exitcode(status)
                how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
                raise WorkerError(f"the process of {noun} {first}-{stop - 1} {how}")
            spools[i].seek(0)
            while not isinstance(item := pickle.load(spools[i]), BaseException):
                yield item
            if not isinstance(item, StopIteration):
                raise item
    finally:
        for pid in filter(None, pids):
            os.kill(pid, 9)  # SIGKILL, 9 on every POSIX system
            os.waitpid(pid, 0)
        for spool in spools:
            spool.close()


def _spool(spool, items: Iterator) -> NoReturn:
    """Pickle each of ``items`` into ``spool``, then the exception that ended
    them (StopIteration when they ran out), and end this forked process
    without returning into its caller's stack or flushing the stdio it
    inherited."""
    status = 1
    try:
        try:
            for item in items:
                pickle.dump(item, spool, pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            pickle.dump(exc, spool, pickle.HIGHEST_PROTOCOL)
        else:
            pickle.dump(StopIteration(), spool, pickle.HIGHEST_PROTOCOL)
        spool.flush()
        status = 0
    finally:
        os._exit(status)
