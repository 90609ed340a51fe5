"""Machine-speed calibration for the timed metrics.

The 2-core reference box is a shared VM whose speed drifts by up to 2x
over minutes as neighbours load the host.  On it, ten consecutive runs
of one workload spread by 20-40% (quartile distance over median), far
beyond any useful regression bound.  A fixed pure-Python loop timed
next to each round slows down with the host in step with the router:
over 185 engine-suite rounds whose wall drifted from 1.04 s to 2.0 s,
windows of ten rounds spread by 25.5% raw and by 3.1% once each round
was divided by the loop time measured around it.

So every timed metric is reported twice: as measured (``.raw``) and
scaled to the loop's speed on a quiet reference box, which is the
figure the bounds apply to (README.md lists the spreads measured with
it).  The loop is benchmark code; a change to the program cannot alter
it.
"""

from __future__ import annotations

import os
from time import perf_counter

#: Seconds :func:`loop_s` takes on the quiet reference box.
REFERENCE_LOOP_S = 0.0185


def loop_s() -> float:
    """Time one pass of a fixed dict- and integer-heavy Python loop."""
    started = perf_counter()
    table = {}
    acc = 0
    for i in range(100_000):
        key = i % 997
        table[key] = table.get(key, 0) + i
        acc += (i * 7) ^ (i >> 3)
    sorted(table.values())
    return perf_counter() - started


def sample(every_cpu: bool) -> float:
    """Slowdown against the reference box right now (1.0 = reference).

    Takes the fastest of two passes: a burst from a neighbour only ever
    slows a pass down.  The two vCPUs' speeds drift independently, so a
    single-threaded load is matched by passes on the CPU the caller runs
    on, and a load spread over processes (``every_cpu``) by the mean of
    passes pinned to each CPU in turn.  At most ~75 ms on the quiet box,
    taken between rounds, never inside a timed interval.
    """
    if not every_cpu:
        return min(loop_s(), loop_s()) / REFERENCE_LOOP_S
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(min(loop_s(), loop_s()))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(per_cpu) / len(per_cpu) / REFERENCE_LOOP_S
