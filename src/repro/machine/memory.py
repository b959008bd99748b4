"""Multiport memories and the cluster arbiter (paper §III-A).

Functional units within a cluster communicate through four-port
memories with concurrent-read-exclusive-write (CREW) access.  Because
multiport memories allow *concurrent reads of the same location*, a
plain test-and-set is insufficient for critical sections: two
processors can both read the semaphore as free.  The **cluster
arbiter** solves this by serializing access to a semaphore table —
asynchronous requests from each port are granted one at a time,
first-come-first-served, with random priority on simultaneous
requests.

Three traffic types are regulated (§III-A):

* **type-1** — shared variables (bit-markers, locks) in the marker
  processing memory → critical sections through the arbiter;
* **type-2** — PU→MU microinstructions and MU→PU results → separate
  queue areas, single-writer/single-reader, no arbiter involvement;
* **type-3** — inter-cluster data MU→CU via the marker activation
  memory → same single-writer/single-reader discipline.

The DES simulator folds per-access arbitration latency into its task
overhead, but uses these models for queue-capacity accounting (the
"burst absorption" of Fig. 8) and the test suite exercises the CREW
and mutual-exclusion semantics directly.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple


class MemoryError_(RuntimeError):
    """Raised on illegal port usage (shadowing builtin avoided)."""


class MultiportMemory:
    """A word-addressable memory with N independent ports (CREW).

    Reads may proceed concurrently from any ports; at most one port may
    write a given location in the same cycle.  ``begin_cycle`` /
    ``end_cycle`` bracket a set of simultaneous accesses and enforce
    the exclusive-write rule.
    """

    def __init__(self, words: int, ports: int = 4, name: str = "mem") -> None:
        self.name = name
        self.words = words
        self.ports = ports
        self._data: List[int] = [0] * words
        self._parity: List[int] = [0] * words
        self._cycle_writes: Dict[int, int] = {}
        self._in_cycle = False
        self.reads = 0
        self.writes = 0
        self.conflicts = 0
        self.parity_errors = 0

    def begin_cycle(self) -> None:
        """Start a simultaneous-access cycle (resets write set)."""
        self._cycle_writes.clear()
        self._in_cycle = True

    def end_cycle(self) -> None:
        """End the simultaneous-access cycle."""
        self._in_cycle = False
        self._cycle_writes.clear()

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.ports:
            raise MemoryError_(f"{self.name}: bad port {port}")

    def read(self, port: int, address: int) -> int:
        """Concurrent reads are always allowed (CREW)."""
        self._check_port(port)
        self.reads += 1
        return self._data[address]

    def write(self, port: int, address: int, value: int) -> None:
        """Exclusive write: a second writer to the same word in one
        cycle is a protocol violation."""
        self._check_port(port)
        if self._in_cycle:
            owner = self._cycle_writes.get(address)
            if owner is not None and owner != port:
                self.conflicts += 1
                raise MemoryError_(
                    f"{self.name}: write conflict at word {address} "
                    f"(ports {owner} and {port})"
                )
            self._cycle_writes[address] = port
        self.writes += 1
        self._data[address] = value
        self._parity[address] = _parity_of(value)

    # -- fault detection (parity) ----------------------------------------
    def corrupt(self, address: int, bit: int = 0) -> None:
        """Flip one data bit without updating parity (fault injection).

        Models a transfer corrupted between the writing and reading
        port; the stale parity lets :meth:`read_checked` detect it.
        """
        self._data[address] ^= 1 << bit

    def read_checked(self, port: int, address: int) -> Tuple[int, bool]:
        """Read with parity verification: (value, parity_ok).

        A ``False`` flag is a *detected* corruption; the reading unit
        is expected to retry the transfer (the DES charges that retry
        through :class:`repro.machine.faults.RetryPolicy`).
        """
        value = self.read(port, address)
        ok = _parity_of(value) == self._parity[address]
        if not ok:
            self.parity_errors += 1
        return value, ok


def _parity_of(value: int) -> int:
    """Single-bit parity of a stored word."""
    return bin(value & 0xFFFF_FFFF_FFFF_FFFF).count("1") & 1


class ClusterArbiter:
    """FCFS grant of exclusive semaphore-table access (paper Fig. 10).

    ``request(port)`` queues an arbitration request; ``grant()``
    returns the next port to receive access.  Simultaneous requests
    (queued between grants) are ordered randomly, matching *"if
    multiple requests occur simultaneously, then priority is randomly
    assigned"*.
    """

    def __init__(self, ports: int = 4, seed: int = 0) -> None:
        self.ports = ports
        self._rng = random.Random(seed)
        self._waiting: List[int] = []
        self._queue: Deque[int] = deque()
        self._holder: Optional[int] = None
        self._failed: set = set()
        self.grants = 0
        self.forced_releases = 0

    def request(self, port: int) -> None:
        """Queue an arbitration request from a port."""
        if not 0 <= port < self.ports:
            raise MemoryError_(f"arbiter: bad port {port}")
        if port in self._failed:
            raise MemoryError_(f"arbiter: port {port} is marked failed")
        self._waiting.append(port)

    def fail_port(self, port: int) -> None:
        """Mark a port's processor as stuck; recover its arbiter state.

        A hung PU/MU must not wedge the whole cluster: its pending
        requests are purged and, if it holds the grant, the grant is
        force-released so surviving units keep making progress.
        Subsequent requests from the failed port are rejected.
        """
        if not 0 <= port < self.ports:
            raise MemoryError_(f"arbiter: bad port {port}")
        self._failed.add(port)
        self._waiting = [p for p in self._waiting if p != port]
        self._queue = deque(p for p in self._queue if p != port)
        if self._holder == port:
            self._holder = None
            self.forced_releases += 1

    @property
    def failed_ports(self) -> frozenset:
        """Ports marked failed via :meth:`fail_port`."""
        return frozenset(self._failed)

    def _commit_waiting(self) -> None:
        """Randomly order the batch of simultaneous requests."""
        if self._waiting:
            self._rng.shuffle(self._waiting)
            self._queue.extend(self._waiting)
            self._waiting.clear()

    def grant(self) -> Optional[int]:
        """Grant the semaphore table to the next requester (or None)."""
        if self._holder is not None:
            return None
        self._commit_waiting()
        if not self._queue:
            return None
        self._holder = self._queue.popleft()
        self.grants += 1
        return self._holder

    def release(self, port: int) -> None:
        """Release the arbiter grant held by a port."""
        if self._holder != port:
            raise MemoryError_(
                f"arbiter: port {port} released without holding the grant"
            )
        self._holder = None

    @property
    def holder(self) -> Optional[int]:
        """Port currently holding the arbiter grant (or None)."""
        return self._holder


class SemaphoreTable:
    """In-use flags for cluster critical sections, arbiter-protected."""

    def __init__(self, arbiter: ClusterArbiter, sections: int = 16) -> None:
        self.arbiter = arbiter
        self._in_use: List[Optional[int]] = [None] * sections

    def acquire(self, port: int, section: int) -> bool:
        """Try to claim a critical section while holding the grant.

        The caller must have been granted arbiter access; the test and
        update of the in-use flag is therefore race-free.
        """
        if self.arbiter.holder != port:
            raise MemoryError_(
                f"port {port} accessed semaphore table without a grant"
            )
        if self._in_use[section] is None:
            self._in_use[section] = port
            return True
        return False

    def release_section(self, port: int, section: int) -> None:
        """Release a held critical section."""
        if self._in_use[section] != port:
            raise MemoryError_(
                f"port {port} released section {section} it does not hold"
            )
        self._in_use[section] = None

    def owner(self, section: int) -> Optional[int]:
        """Port holding a section (None when free)."""
        return self._in_use[section]


@dataclass
class BoundedQueue:
    """Capacity-accounted FIFO for type-2/type-3 queue areas.

    Single-writer/single-reader queues do not need the arbiter; the DES
    uses this for the marker-processing and marker-activation memory
    regions and records overflow pressure (the Fig. 8 burst-absorption
    requirement: when a burst exceeds buffering, *"the sending
    processor will be blocked"*).
    """

    capacity: int
    name: str = "queue"
    _items: Deque = field(default_factory=deque)
    peak: int = 0
    overflows: int = 0

    def push(self, item) -> bool:
        """Enqueue; returns False (and counts an overflow) when the
        occupancy exceeds capacity.

        Capacity is *soft*: the item is still queued — on the hardware
        the sending MU would block until space frees (§II-C), and the
        simulator surfaces that pressure through the overflow count
        rather than by dropping markers.
        """
        items = self._items
        occupancy = len(items)
        over = occupancy >= self.capacity
        if over:
            self.overflows += 1
        items.append(item)
        if occupancy >= self.peak:
            self.peak = occupancy + 1
        return not over

    def pop(self):
        """Dequeue the oldest item; raises when empty."""
        if not self._items:
            raise MemoryError_(f"{self.name}: pop from empty queue")
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        """Whether occupancy has reached capacity."""
        return len(self._items) >= self.capacity
