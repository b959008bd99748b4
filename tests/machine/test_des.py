"""Discrete-event kernel: ordering, servers, pools."""

import gc
import random
import weakref
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import (
    Job,
    Server,
    ServerPool,
    SimulationError,
    Simulator,
    Timeout,
    utilization,
)
from repro.machine.des import COMPACT_THRESHOLD


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(9.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_ties_broken_by_schedule_order(self):
        sim = Simulator()
        log = []
        for tag in ("x", "y", "z"):
            sim.schedule(2.0, lambda t=tag: log.append(t))
        sim.run()
        assert log == ["x", "y", "z"]

    def test_events_may_schedule_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append(1)
            sim.schedule(3.0, lambda: log.append(2))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [1, 2]
        assert sim.now == 4.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, lambda: log.append("no"))
        sim.cancel(event)
        sim.run()
        assert log == []

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(10.0, lambda: log.append("b"))
        sim.run(until=5.0)
        assert log == ["a"]
        assert sim.now == 5.0
        sim.run()
        assert log == ["a", "b"]

    def test_run_until_is_inclusive(self):
        """Events scheduled exactly at ``until`` fire."""
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append("at"))
        sim.schedule(5.0 + 1e-9, lambda: log.append("after"))
        sim.run(until=5.0)
        assert log == ["at"]
        assert sim.now == 5.0

    def test_run_until_advances_clock_on_empty_heap(self):
        """Back-to-back run(until=...) calls advance time even when no
        events exist in the window."""
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.now == 3.0
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_schedule_zero_during_processing_is_fifo(self):
        """schedule(0, fn) inside a handler fires after already-queued
        events of the same timestamp, in submission order."""
        sim = Simulator()
        log = []

        def handler():
            log.append("first")
            sim.schedule(0.0, lambda: log.append("chained-1"))
            sim.schedule(0.0, lambda: log.append("chained-2"))

        sim.schedule(2.0, handler)
        sim.schedule(2.0, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second", "chained-1", "chained-2"]
        assert sim.now == 2.0

    def test_schedule_zero_at_until_boundary_fires(self):
        """Zero-delay chains at the until boundary still complete."""
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: sim.schedule(0.0, lambda: log.append("z")))
        sim.run(until=5.0)
        assert log == ["z"]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestHeapCompaction:
    def test_cancelling_10k_timeouts_keeps_heap_bounded(self):
        """Regression: cancelled watchdogs used to stay in the heap
        until popped, so deadline-heavy serving runs grew the heap
        without bound."""
        sim = Simulator()
        for i in range(10_000):
            watchdog = Timeout(sim, 1_000.0 + i, lambda: None)
            watchdog.cancel()
            assert sim.heap_size <= COMPACT_THRESHOLD + 1
        assert sim.pending == 0
        sim.run()
        assert sim.events_processed == 0

    def test_interleaved_cancel_bounds_heap_to_live_events(self):
        """With half the events cancelled, compaction keeps heap slots
        within ~2x the live-event count."""
        sim = Simulator()
        fired = []
        expected = []
        for i in range(10_000):
            handle = sim.schedule(500.0 + i, fired.append, i)
            if i % 2:
                sim.cancel(handle)
            else:
                expected.append(i)
            assert sim.heap_size <= 2 * sim.pending + COMPACT_THRESHOLD + 1
        sim.run()
        assert fired == expected

    def test_pending_counts_live_events_only(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending == 10
        for handle in handles[:4]:
            sim.cancel(handle)
        assert sim.pending == 6
        sim.run()
        assert sim.pending == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        sim.cancel(handle)
        sim.cancel(handle)
        assert fired == ["x"]
        assert sim.pending == 0


class TestReserveSeqs:
    def test_reserved_seq_fixes_tie_break_order(self):
        """A reserved event fires before a same-time event scheduled
        later, even when entered into the heap after it — the tie-break
        follows reservation order, not heap-entry order."""
        sim = Simulator()
        log = []
        base = sim.reserve_seqs(2)
        sim.schedule(5.0, log.append, "scheduled")
        sim.schedule_reserved(5.0, base + 1, log.append, "second")
        sim.schedule_reserved(5.0, base, log.append, "first")
        sim.run()
        assert log == ["first", "second", "scheduled"]

    def test_reserved_event_is_pending_but_not_in_heap(self):
        sim = Simulator()
        base = sim.reserve_seqs(3)
        assert sim.pending == 3
        assert sim.heap_size == 0
        fired = []

        def chain(i):
            # Each reserved event enters its successor, one ahead.
            fired.append(i)
            if i + 1 < 3:
                sim.schedule_reserved(
                    sim.now + 1.0, base + i + 1, chain, i + 1
                )
                assert sim.heap_size == 1

        sim.schedule_reserved(3.0, base, chain, 0)
        assert sim.heap_size == 1
        sim.run()
        assert fired == [0, 1, 2]
        assert sim.events_processed == 3
        assert sim.pending == 0

    def test_reserve_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        base = sim.reserve_seqs(1)
        sim.run()
        with pytest.raises(SimulationError, match="past"):
            sim.schedule_reserved(1.0, base, lambda: None)

    def test_unreserved_seq_and_negative_count_rejected(self):
        sim = Simulator()
        base = sim.reserve_seqs(1)
        with pytest.raises(SimulationError, match="not reserved"):
            sim.schedule_reserved(1.0, base + 1, lambda: None)
        with pytest.raises(SimulationError, match="negative"):
            sim.reserve_seqs(-1)


class TestNoReferenceCycles:
    @pytest.mark.parametrize("make", [
        lambda sim: Server(sim), lambda sim: ServerPool(sim, 2),
    ])
    def test_server_freed_by_reference_counting(self, make):
        """A server holds no reference to itself (completions bind
        ``_finish`` per job), so one that has served jobs is freed as
        soon as it is dropped, with the collector off."""
        gc.disable()
        try:
            sim = Simulator()
            server = make(sim)
            for _ in range(3):
                server.submit(Job(1.0))
            sim.run()
            assert server.jobs_done == 3
            ref = weakref.ref(server)
            del server
            assert ref() is None
        finally:
            gc.enable()


class TestElapsedBusyTime:
    def test_server_prorates_in_service_job(self):
        sim = Simulator()
        server = Server(sim)
        server.submit(Job(10.0))
        sim.run(until=4.0)
        # The accumulator accrues at job start; the elapsed view never
        # counts service that has not happened yet.
        assert server.busy_time == 10.0
        assert server.busy_time_until(sim.now) == 4.0

    def test_pool_prorates_only_unfinished_jobs(self):
        sim = Simulator()
        pool = ServerPool(sim, servers=2)
        pool.submit(Job(2.0))
        pool.submit(Job(10.0))
        sim.run(until=5.0)
        assert pool.busy_time_until(sim.now) == 2.0 + 5.0
        sim.run()
        assert pool.busy_time_until(sim.now) == pool.busy_time == 12.0


class TestServer:
    def test_fifo_serialization(self):
        sim = Simulator()
        server = Server(sim)
        done = []
        server.submit(Job(3.0, on_done=lambda: done.append(sim.now)))
        server.submit(Job(2.0, on_done=lambda: done.append(sim.now)))
        sim.run()
        assert done == [3.0, 5.0]

    def test_busy_time_accumulates(self):
        sim = Simulator()
        server = Server(sim)
        server.submit(Job(3.0))
        server.submit(Job(2.0))
        sim.run()
        assert server.busy_time == 5.0
        assert server.jobs_done == 2
        assert server.idle

    def test_on_start_called_at_service_start(self):
        sim = Simulator()
        server = Server(sim)
        starts = []
        server.submit(Job(3.0))
        server.submit(Job(1.0, on_start=lambda: starts.append(sim.now)))
        sim.run()
        assert starts == [3.0]

    def test_max_queue(self):
        sim = Simulator()
        server = Server(sim)
        for _ in range(3):
            server.submit(Job(1.0))
        assert server.max_queue >= 2


class TestServerPool:
    def test_parallel_service(self):
        sim = Simulator()
        pool = ServerPool(sim, servers=2)
        done = []
        for _ in range(2):
            pool.submit(Job(4.0, on_done=lambda: done.append(sim.now)))
        sim.run()
        assert done == [4.0, 4.0]

    def test_capacity_respected(self):
        sim = Simulator()
        pool = ServerPool(sim, servers=2)
        done = []
        for _ in range(4):
            pool.submit(Job(1.0, on_done=lambda: done.append(sim.now)))
        sim.run()
        assert done == [1.0, 1.0, 2.0, 2.0]

    def test_zero_servers_rejected(self):
        with pytest.raises(SimulationError):
            ServerPool(Simulator(), servers=0)

    def test_idle_transitions(self):
        sim = Simulator()
        pool = ServerPool(sim, servers=1)
        assert pool.idle
        pool.submit(Job(1.0))
        assert not pool.idle
        sim.run()
        assert pool.idle


class TestTimeout:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        watchdog = Timeout(sim, 5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]
        assert watchdog.expired
        assert not watchdog.armed

    def test_cancel_disarms(self):
        sim = Simulator()
        fired = []
        watchdog = Timeout(sim, 5.0, lambda: fired.append(sim.now))
        sim.schedule(1.0, watchdog.cancel)
        sim.run()
        assert fired == []
        assert not watchdog.expired
        assert not watchdog.armed


class TestPenaltyHook:
    def test_hook_extends_service_time(self):
        sim = Simulator()
        server = Server(sim)
        server.penalty_hook = lambda job: 2.0
        done = []
        server.submit(Job(3.0, on_done=lambda: done.append(sim.now)))
        sim.run()
        assert done == [5.0]
        assert server.busy_time == 5.0

    def test_no_hook_is_identical(self):
        sim = Simulator()
        server = Server(sim)
        done = []
        server.submit(Job(3.0, on_done=lambda: done.append(sim.now)))
        sim.run()
        assert done == [3.0]
        assert server.busy_time == 3.0

    def test_pool_hook(self):
        sim = Simulator()
        pool = ServerPool(sim, servers=2)
        pool.penalty_hook = lambda job: 1.0
        done = []
        for _ in range(2):
            pool.submit(Job(1.0, on_done=lambda: done.append(sim.now)))
        sim.run()
        assert done == [2.0, 2.0]


def test_utilization_helper():
    assert utilization(5.0, servers=2, elapsed=5.0) == 0.5
    assert utilization(1.0, servers=1, elapsed=0.0) == 0.0


class TestStress:
    def test_large_randomized_job_graph_conserves_jobs(self):
        """A few thousand jobs across servers and pools all complete,
        regardless of arrival pattern."""
        import random

        rng = random.Random(99)
        sim = Simulator()
        pool = ServerPool(sim, servers=3)
        server = Server(sim)
        done = {"count": 0}

        def make_job(depth):
            def on_done():
                done["count"] += 1
                if depth > 0 and rng.random() < 0.5:
                    target = pool if rng.random() < 0.5 else server
                    target.submit(Job(rng.uniform(0.1, 2.0),
                                      on_done=make_job(depth - 1).on_done))

            return Job(rng.uniform(0.1, 2.0), on_done=on_done)

        submitted = 400
        for _ in range(submitted):
            (pool if rng.random() < 0.5 else server).submit(make_job(3))
        sim.run()
        assert done["count"] >= submitted
        assert pool.idle and server.idle
        # Busy time conservation: jobs_done matches completions.
        assert pool.jobs_done + server.jobs_done == done["count"]


class _QueuedServer:
    """Reference: the single server as it was before in-line starts.
    Every job passes through the queue (append, then pop on start) and
    a completion callback's submissions wait until it returns."""

    def __init__(self, sim):
        self.sim = sim
        self._queue = deque()
        self._busy = False
        self.busy_time = 0.0
        self.jobs_done = 0
        self.max_queue = 0
        self.penalty_hook = None
        self._service_end = 0.0

    def submit(self, job):
        self._queue.append(job)
        self.max_queue = max(self.max_queue, len(self._queue))
        if not self._busy:
            self._start_next()

    def _start_next(self):
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        job = self._queue.popleft()
        if job.on_start:
            job.on_start()
        service = job.service_time
        if self.penalty_hook is not None:
            service += self.penalty_hook(job)
        self.busy_time += service
        self._service_end = self.sim.schedule(service, self._finish, job)[0]

    def _finish(self, job):
        self.jobs_done += 1
        if job.on_done:
            job.on_done(*job.args)
        self._start_next()

    def busy_time_until(self, now):
        if self._busy and self._service_end > now:
            return self.busy_time - (self._service_end - now)
        return self.busy_time


class _QueuedPool:
    """Reference: the server pool as it was before in-line starts.
    A completion frees its server before the callback runs."""

    def __init__(self, sim, servers):
        self.sim = sim
        self.num_servers = servers
        self._queue = deque()
        self._busy = 0
        self.busy_time = 0.0
        self.jobs_done = 0
        self.max_queue = 0
        self.penalty_hook = None
        self._service_ends = []

    def submit(self, job):
        self._queue.append(job)
        self.max_queue = max(self.max_queue, len(self._queue))
        if self._busy < self.num_servers:
            self._start_next()

    def _start_next(self):
        if not self._queue or self._busy >= self.num_servers:
            return
        job = self._queue.popleft()
        self._busy += 1
        if job.on_start:
            job.on_start()
        service = job.service_time
        if self.penalty_hook is not None:
            service += self.penalty_hook(job)
        self.busy_time += service
        event = self.sim.schedule(service, self._finish, job)
        self._service_ends.append(event[0])

    def _finish(self, job):
        self._busy -= 1
        self._service_ends.remove(self.sim.now)
        self.jobs_done += 1
        if job.on_done:
            job.on_done(*job.args)
        self._start_next()

    def busy_time_until(self, now):
        total = self.busy_time
        for end in self._service_ends:
            if end > now:
                total -= end - now
        return total


def _drive(server_cls, pool_cls, seed, with_hook):
    """Run one seeded job graph on a single server and a 2-server pool;
    return everything observable about it."""
    rng = random.Random(seed)
    sim = Simulator()
    units = [server_cls(sim), pool_cls(sim, 2)]
    if with_hook:
        for unit in units:
            unit.penalty_hook = lambda job: 0.5 if job.tag % 3 == 0 else 0.0
    log = []
    labels = iter(range(10**6))

    def submit(depth):
        tag = next(labels)
        unit = rng.randrange(2)
        job = Job(
            rng.choice((0.0, 0.5, 1.0, 1.0, 2.0)),
            on_start=lambda: log.append(("start", sim.now, tag)),
            on_done=done, tag=tag, args=(tag, depth),
        )
        units[unit].submit(job)

    def done(tag, depth):
        log.append(("done", sim.now, tag))
        for _ in range(rng.randrange(3) if depth else 0):
            submit(depth - 1)

    for _ in range(12):
        sim.schedule(rng.choice((0.0, 0.0, 1.0, 1.5)), submit, 3)
    sim.run(until=3.0)
    midway = [unit.busy_time_until(sim.now) for unit in units]
    sim.run()
    return log, midway, [
        (unit.busy_time, unit.max_queue, unit.jobs_done,
         unit.busy_time_until(sim.now))
        for unit in units
    ]


class TestInlineStartMatchesQueuedPath:
    @given(seed=st.integers(0, 10**6), with_hook=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_firing_order_and_accounting(self, seed, with_hook):
        """Starting a job in line on a free server fires the same
        events in the same (time, seq) order, with the same busy time,
        queue peak, job count and elapsed busy time, as queueing it
        and popping it straight back."""
        assert _drive(Server, ServerPool, seed, with_hook) == _drive(
            _QueuedServer, _QueuedPool, seed, with_hook
        )

    def test_lone_job_counts_a_one_deep_queue(self):
        """A job that never waits still passed through a one-deep queue
        on the queued path, so ``max_queue`` reads 1, not 0."""
        for unit in (Server, _QueuedServer, lambda sim: ServerPool(sim, 2),
                     lambda sim: _QueuedPool(sim, 2)):
            sim = Simulator()
            server = unit(sim)
            server.submit(Job(1.0))
            sim.run()
            server.submit(Job(1.0))
            sim.run()
            assert (server.max_queue, server.jobs_done) == (1, 2)
