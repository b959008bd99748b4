"""Performance-collection network (paper §III-B).

*"A separate network is desirable for gathering performance data at
minimal levels of perturbation."*  Each PE writes an 8-bit event code
and 24-bit status word to its serial-port register and resumes
execution without delay, while a 2 Mb/s serial link shifts the record
to a central collection board where it is timestamped into a FIFO.

Collection is opt-in, like the tracer: a run records monitoring events
only when a collector is attached (``SnapMachine.run(program,
perf=PerformanceCollector())``), so unread records cost nothing.  Link
bandwidth is modeled only as a reported statistic (the network is
independent, so it never perturbs simulated execution — which is the
point of the design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


class EventCode:
    """8-bit monitoring event codes."""

    INSTR_ISSUE = 0x01
    INSTR_COMPLETE = 0x02
    TASK_START = 0x10
    TASK_END = 0x11
    MSG_SEND = 0x20
    MSG_RECV = 0x21
    MSG_FORWARD = 0x22
    BARRIER = 0x30
    QUEUE_FULL = 0x40
    COLLECT = 0x50

    _NAMES = {
        0x01: "instr-issue", 0x02: "instr-complete",
        0x10: "task-start", 0x11: "task-end",
        0x20: "msg-send", 0x21: "msg-recv", 0x22: "msg-forward",
        0x30: "barrier", 0x40: "queue-full", 0x50: "collect",
    }

    @classmethod
    def name_of(cls, code: int) -> str:
        """Name for an id (None/generic when unknown)."""
        return cls._NAMES.get(code, f"event-{code:#04x}")


#: Serial link rate: 2 Mb/s; each record is 8 + 24 = 32 bits.
LINK_BITS_PER_SECOND = 2_000_000
RECORD_BITS = 32

#: Time to shift one record out, in microseconds.
RECORD_TRANSFER_US = RECORD_BITS / LINK_BITS_PER_SECOND * 1e6


@dataclass(frozen=True)
class PerfRecord:
    """One timestamped monitoring record at the collection board."""

    time: float          # event timestamp (µs, simulated)
    source: int          # PE / cluster id reporting
    code: int            # 8-bit event code
    status: int = 0      # 24-bit status word

    @property
    def name(self) -> str:
        """Human-readable name."""
        return EventCode.name_of(self.code)


class PerformanceCollector:
    """Central collection board: timestamped FIFO of monitoring events."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[PerfRecord] = []

    def record(self, time: float, source: int, code: int,
               status: int = 0) -> None:
        """Store a monitoring event (no-op when disabled)."""
        if not self.enabled:
            return
        if not 0 <= status < (1 << 24):
            status &= (1 << 24) - 1
        self.records.append(PerfRecord(time, source, code, status))

    # -- analysis -----------------------------------------------------------
    def by_code(self, code: int) -> List[PerfRecord]:
        """All records with the given event code."""
        return [r for r in self.records if r.code == code]

    def histogram(self) -> Dict[str, int]:
        """Event counts by code name."""
        hist: Dict[str, int] = {}
        for r in self.records:
            hist[r.name] = hist.get(r.name, 0) + 1
        return hist

    def timeline(
        self, code: Optional[int] = None
    ) -> List[Tuple[float, int]]:
        """(time, source) pairs, optionally filtered by code."""
        return [
            (r.time, r.source)
            for r in self.records
            if code is None or r.code == code
        ]

    def serial_backlog_us(self) -> float:
        """Worst-case serial transfer time if all records queued at once.

        Reported for fidelity: at 2 Mb/s each 32-bit record takes 16 µs
        on the wire, but the PE *"resumes execution without delay"*, so
        this never feeds back into simulated time.
        """
        return len(self.records) * RECORD_TRANSFER_US

    def clear(self) -> None:
        """Discard all stored records."""
        self.records.clear()
