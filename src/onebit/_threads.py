"""The invariance scan's state slabs split over the usable cores: the
calling thread runs part 0 and one helper thread each of the others.
numpy's GEMM and ufuncs release the interpreter lock, so the parts
overlap.  Plain ``threading``: ``concurrent.futures`` would add about 3 ms
to every CLI start.
"""

from __future__ import annotations

import os
import threading


def usable_cores() -> int:
    """Cores this process may run on: its affinity set where the platform
    reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def part_count(work: int, part_work: int, most: int) -> int:
    """min(usable cores, ``most``, ``work // part_work``), at least one: a
    part gets at least ``part_work`` units of the ``work``."""
    wanted = min(most, work // part_work)
    return 1 if wanted < 2 else min(usable_cores(), wanted)


def run_parts(part, n_parts: int) -> list:
    """``[part(0), ..., part(n_parts - 1)]``: part 0 on the calling thread,
    each other part on a helper thread started before it.  The helpers are
    joined even when part 0 raises, and then part 0's exception propagates;
    otherwise the first exception a helper raised is re-raised here, with
    its type and message.  One part starts no thread."""
    if n_parts == 1:
        return [part(0)]
    results = [None] * n_parts
    errors = [None] * n_parts

    def run(k):
        try:
            results[k] = part(k)
        except Exception as exc:  # re-raised by the caller after the join
            errors[k] = exc

    helpers = [threading.Thread(target=run, args=(k,)) for k in range(1, n_parts)]
    for helper in helpers:
        helper.start()
    try:
        results[0] = part(0)
    finally:
        for helper in helpers:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
