"""Deterministic cost counter for the timed machine's per-event path.

Wall time on a shared host swings by tens of percent, so it cannot
gate a small regression in the Python work done per simulated event.
The number of Python-level function calls per event can: for a fixed
program on a fixed knowledge base it repeats exactly.  The bound sits
about 10% above the value measured when the per-event path was last
flattened (10.01 calls per event on CPython 3.11; the machine code has
no version-dependent branch, and newer interpreters only inline more
comprehension frames).  Raise it only with a measured reason.
"""

import sys

from repro.apps.inheritance import inheritance_program
from repro.machine import SnapMachine, snap1_full
from repro.network.generator import generate_hierarchy_kb

#: Python-level calls per simulated event allowed on the fig15 flood.
MAX_CALLS_PER_EVENT = 11.0


def _count_calls(run):
    """Python-level ``call`` events (builtins excluded) made by ``run()``,
    and its return value."""
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return calls, result


def test_fig15_flood_calls_per_event_bounded():
    """One root-to-leaf inheritance on the 800-node fig15 hierarchy
    (seeded generator) on the full 32-cluster machine."""
    machine = SnapMachine(generate_hierarchy_kb(800), snap1_full())
    program = inheritance_program()
    warm = machine.run(program)  # fills the machine's route caches
    calls, report = _count_calls(lambda: machine.run(program))
    assert report.events_processed == warm.events_processed > 10_000
    per_event = calls / report.events_processed
    assert per_event <= MAX_CALLS_PER_EVENT, (
        f"{per_event:.2f} Python calls per simulated event "
        f"(bound {MAX_CALLS_PER_EVENT})"
    )
