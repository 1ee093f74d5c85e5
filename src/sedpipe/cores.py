"""Work split across the cores this process may run on.

The conv blocks (``nn.layers``) and the feature extractors (``features``)
split their work into contiguous ranges, one per core, and run each range on
a thread that lives for one call. numpy releases the interpreter lock inside
its FFTs, GEMMs and loops, so the ranges run at once. :func:`count` is read
on every call, so a process pinned to one core runs serially, and a test
sets the core count by patching it here.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def split(total: int, n: int) -> list[slice]:
    """``range(total)`` as ``n`` contiguous slices of near-equal sizes."""
    bounds = [total * k // n for k in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def count() -> int:
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0))


def run(fn, jobs: list) -> None:
    """Call ``fn(job)`` for every job: the first on the calling thread, each
    other one on a thread of its own that lives for this call only. Returns,
    or raises a call's exception with its own type (the earliest job's
    first), only after every call has finished and every thread has ended,
    so no thread outlives a call and a forked child has nothing to reset.

    Memory that a thread allocates and frees stays in that thread's malloc
    arena, so the callers allocate the large buffers and outputs that the
    jobs write, and hand each job its part."""
    if len(jobs) == 1:
        fn(jobs[0])
        return
    with ThreadPoolExecutor(len(jobs) - 1, thread_name_prefix="sedpipe") as pool:
        futures = [pool.submit(fn, job) for job in jobs[1:]]
        fn(jobs[0])
    for future in futures:
        future.result()
