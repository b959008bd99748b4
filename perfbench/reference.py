"""The host-speed reference: a fixed piece of pure-Python work, timed
between operations, that the end-to-end metrics are calibrated by.

The container this benchmark was written on shares its cores and
memory with other tenants, and the same code runs up to 1.6–1.9x
slower for tens of seconds to tens of minutes at a time.  The
reference slows down with it: it does the kind of work the simulator
does (a flood over an adjacency dict driven by an event heap, with
small objects allocated on the way), and it starts with its data out
of the caches, evicted by the operation before it, as the simulator's
own data often is.  A shared core or contended memory costs both
alike.  It shares no code with ``repro``, so no change to the program
can change its work.

A metric is calibrated by ``NOMINAL_NS / median(reference times)`` of
the round it was measured in: it reads what it would have read on a
host where the reference takes ``NOMINAL_NS``.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter_ns
from typing import Dict, List

#: Nodes and out-degree of the fixed reference graph (about 5 MB).
NODES = 20_000
DEGREE = 3
#: Nodes one reference run reaches.  Between operations, whose data
#: has evicted the graph from the caches, a run took about 4 ms in the
#: fast spells of the 2.1 GHz Xeon container the benchmark was written
#: on and about 7 ms in its slow ones.
VISITS = 4_000
#: Reference time that calibrated metrics are expressed at: a round
#: figure near the reference's time in that container's fast spells.
NOMINAL_NS = 4_000_000


def _graph() -> Dict[int, List[int]]:
    rng = random.Random(20_000)
    return {n: [rng.randrange(NODES) for _ in range(DEGREE)]
            for n in range(NODES)}


_ADJ = _graph()


class _Arrival:
    __slots__ = ("time", "node")

    def __init__(self, time: float, node: int) -> None:
        self.time = time
        self.node = node


def reference_ns() -> int:
    """Time one reference run: a flood from node 0 until ``VISITS``
    nodes have been reached.  The collector is paused, so the size of
    the program's heap, which a change may alter, costs it nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        seen = {0}
        heap = [(0.0, 0, _Arrival(0.0, 0))]
        marks: Dict[int, int] = {}
        order = 1
        while heap and order < VISITS:
            time, _, arrival = heapq.heappop(heap)
            marks[arrival.node] = marks.get(arrival.node, 0) + 1
            for succ in _ADJ[arrival.node]:
                if succ not in seen:
                    seen.add(succ)
                    order += 1
                    heapq.heappush(
                        heap, (time + 1.5, order, _Arrival(time + 1.5, succ)))
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()
