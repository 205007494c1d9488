"""How many workers the frame-pair pipeline and the simulator run at once.

``default_workers`` is the one rule for both: the pipeline's processes, one
per block of windows, and the simulator's threads.  ``in_order`` runs a
stream of calls on that many threads while handing out their results in
the order the calls came; the simulator's chunks of substeps use it.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterator
from contextlib import nullcontext
from functools import partial

import numpy as np

from .events import CameraModel

# Frames of fewer pixels run in the calling thread alone.  On a 2-vCPU host
# (fresh processes, one BLAS thread, alternating pairs of runs), two workers
# against one ran `evflow estimate` 1.43x as fast on the 346x260 drive (two
# processes; median of 10 per-pair ratios, quartiles 1.37-1.51) and `evflow
# simulate` 1.23-1.29x (two threads; medians of two sets of 10 pairs).  At 160x120, two pair threads ran `estimate` (RANSAC on) only 0.85x
# (10 pairs) and `simulate` 0.86-0.95x as fast (three sets of 10 pairs):
# small frames do not pay for a second working set.
PARALLEL_MIN_PIXELS = 40_000


def default_workers(cam: CameraModel) -> int:
    """Calls run at once: two on frames of ``PARALLEL_MIN_PIXELS`` or more
    where two CPUs are usable, else one."""
    if cam.width * cam.height < PARALLEL_MIN_PIXELS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _under(errors: dict, fn, *args):
    with np.errstate(**errors):
        return fn(*args)


def in_order(calls: Iterator[tuple], workers: int) -> Iterator:
    """``fn(*args)`` for each ``(fn, *args)`` that ``calls`` yields, in that order.

    Calls run on a pool of ``workers`` threads, each under the numpy error
    state of the thread that pulled it from ``calls``.  At most ``workers``
    calls are pending: once that many are, the oldest one's result is
    yielded before the next call is pulled, so pulling a call overlaps the
    ones still running.  One worker runs each call on this thread right
    after pulling it and starts no thread.  When a call raises, every result
    before it has been yielded; when pulling a call raises, the results of
    the calls pulled before it are yielded first.
    """
    if workers == 1:
        # a pending call is the call itself, run here when its result is due
        defer, pool = partial, nullcontext()
    else:
        from concurrent.futures import ThreadPoolExecutor  # imported here: one worker needs none
        pool = ThreadPoolExecutor(workers, thread_name_prefix="evflow-worker")
        defer = lambda *call: pool.submit(_under, np.geterr(), *call).result
    pending = deque()
    with pool:
        while True:
            try:
                call = next(calls, None)
            except Exception:
                while pending:
                    yield pending.popleft()()
                raise
            if call is None:
                break
            pending.append(defer(*call))
            del call  # a finished call's arguments are not kept while the next is pulled
            if len(pending) == workers:
                yield pending.popleft()()
        while pending:
            yield pending.popleft()()
